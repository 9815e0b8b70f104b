#include "systolic/trace_io.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>

#include "common/csv.hpp"
#include "common/log.hpp"

namespace scalesim::systolic
{

namespace
{

/** Staging-buffer granularity; rows needing more grow the buffer. */
constexpr std::size_t kSinkBufBytes = std::size_t{1} << 16;

/** Digits of a 64-bit decimal plus one ", " separator. */
constexpr std::size_t kMaxField = 22;

/** Number texts up to this long take the fixed-width patch copy. */
constexpr std::size_t kPatchCopy = 16;

/** Row deltas above this (or negative) skip the patch fast path. */
constexpr Addr kMaxPatchDelta = 999'999'999;

} // namespace

SramTraceWriter::SramTraceWriter(std::ostream* ifmap_reads,
                                 std::ostream* filter_reads,
                                 std::ostream* ofmap_writes,
                                 std::ostream* ofmap_reads)
{
    ifmap_.out = ifmap_reads;
    filter_.out = filter_reads;
    ofmap_.out = ofmap_writes;
    oread_.out = ofmap_reads;
}

SramTraceWriter::~SramTraceWriter()
{
    flush();
}

void
SramTraceWriter::flushSink(Sink& sink)
{
    if (sink.used > 0 && sink.out != nullptr) {
        sink.out->write(sink.buf.data(),
                        static_cast<std::streamsize>(sink.used));
    }
    sink.used = 0;
    // prevOff indexes into the drained region; the next row must
    // re-derive its digits from scratch.
    sink.havePrev = false;
}

void
SramTraceWriter::flush()
{
    flushSink(ifmap_);
    flushSink(filter_);
    flushSink(oread_);
    flushSink(ofmap_);
}

void
SramTraceWriter::endLayer(Cycle /*total_cycles*/)
{
    flush();
}

/**
 * Constant-delta fast path: every number of the previous row is still
 * in the staging buffer as text, so the new row is that text copied
 * forward with `delta` decimal-added in place (low digit first,
 * rippling carries). A number whose digit count would change falls
 * back to std::to_chars for that field only. Caller guarantees the
 * row fits and the previous row's offsets are valid.
 */
void
SramTraceWriter::patchRow(Sink& sink, char*& p,
                          std::span<const Addr> addrs, Addr delta)
{
    // Decimal digits of the delta, least significant first.
    unsigned ddig[10];
    int nd = 0;
    for (Addr t = delta; t != 0; t /= 10)
        ddig[nd++] = static_cast<unsigned>(t % 10);

    // Everything the loop touches lives in locals: `p` arrives by
    // reference and char stores alias freely, so leaving these as
    // member/vector accesses would force reloads on every store.
    char* const base = sink.buf.data();
    std::uint32_t* const off = sink.prevOff.data();
    std::uint8_t* const lens = sink.prevLen.data();
    const Addr* const vals = addrs.data();
    const std::size_t n = addrs.size();
    char* q = p;
    for (std::size_t i = 0; i < n; ++i) {
        q[0] = ',';
        q[1] = ' ';
        q += 2;
        const char* src = base + off[i];
        std::size_t len = lens[i];
        bool redo = len > kPatchCopy;
        if (!redo) {
            // Fixed-width copy through a temp: src and q can be
            // within kPatchCopy bytes of each other on short rows,
            // and the tail bytes beyond `len` are don't-cares.
            char tmp[kPatchCopy];
            std::memcpy(tmp, src, kPatchCopy);
            std::memcpy(q, tmp, kPatchCopy);
            char* const last = q + len - 1;
            for (int k = 0; k < nd; ++k) {
                char* d = last - k;
                if (d < q) {
                    redo = true;
                    break;
                }
                unsigned v = static_cast<unsigned>(*d - '0') + ddig[k];
                if (v >= 10) {
                    v -= 10;
                    char* c = d - 1;
                    for (;;) {
                        if (c < q) {
                            redo = true;
                            break;
                        }
                        if (*c == '9') {
                            *c = '0';
                            --c;
                        } else {
                            ++*c;
                            break;
                        }
                    }
                    if (redo)
                        break;
                }
                *d = static_cast<char>('0' + v);
            }
        }
        if (redo) {
            // Digit count changed (or the text is unusually long):
            // the patched bytes are garbage, overwrite them whole.
            len = static_cast<std::size_t>(
                std::to_chars(q, q + kMaxField, vals[i]).ptr - q);
        }
        off[i] = static_cast<std::uint32_t>(q - base);
        lens[i] = static_cast<std::uint8_t>(len);
        q += len;
    }
    p = q;
}

void
SramTraceWriter::writeRow(Sink& sink, Cycle clk,
                          std::span<const Addr> addrs)
{
    // Worst case: every field at full width plus the newline.
    const std::size_t need = (addrs.size() + 1) * kMaxField + 1;
    if (sink.used + need > sink.buf.size()) {
        flushSink(sink);
        if (need > sink.buf.size())
            sink.buf.resize(std::max(need, kSinkBufBytes));
    }
    char* p = sink.buf.data() + sink.used;
    p = std::to_chars(p, p + kMaxField, clk).ptr;

    // Probe for the constant-delta pattern. Comparing against the
    // last slow-path row plus the accumulated delta (instead of the
    // immediately preceding row) means a run of patched rows never
    // copies values back — only `accum` advances. The OR-reduction
    // has no early exit so it vectorizes; failed probes are rare and
    // short. Unsigned subtraction sends negative deltas above the
    // cap, so they share the slow path with irregular rows.
    Addr delta = 0;
    bool patch = sink.havePrev && !addrs.empty()
        && addrs.size() == sink.baseVals.size();
    if (patch) {
        const Addr* base_vals = sink.baseVals.data();
        const Addr want = addrs[0] - base_vals[0];
        Addr diff = 0;
        for (std::size_t i = 1; i < addrs.size(); ++i)
            diff |= (addrs[i] - base_vals[i]) ^ want;
        delta = want - sink.accum;
        patch = diff == 0 && delta <= kMaxPatchDelta;
        if (patch)
            sink.accum = want;
    }

    if (patch) {
        patchRow(sink, p, addrs, delta);
    } else {
        char* const base = sink.buf.data();
        sink.baseVals.assign(addrs.begin(), addrs.end());
        sink.accum = 0;
        sink.prevOff.resize(addrs.size());
        sink.prevLen.resize(addrs.size());
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            *p++ = ',';
            *p++ = ' ';
            char* const q =
                std::to_chars(p, p + kMaxField, addrs[i]).ptr;
            sink.prevOff[i] = static_cast<std::uint32_t>(p - base);
            sink.prevLen[i] = static_cast<std::uint8_t>(q - p);
            p = q;
        }
        sink.havePrev = !addrs.empty();
    }
    *p++ = '\n';
    sink.used = static_cast<std::size_t>(p - sink.buf.data());
}

void
SramTraceWriter::cycle(Cycle clk, std::span<const Addr> ifmap_reads,
                       std::span<const Addr> filter_reads,
                       std::span<const Addr> ofmap_reads,
                       std::span<const Addr> ofmap_writes)
{
    if (ifmap_.out && !ifmap_reads.empty()) {
        writeRow(ifmap_, clk, ifmap_reads);
        ++rows_;
    }
    if (filter_.out && !filter_reads.empty()) {
        writeRow(filter_, clk, filter_reads);
        ++rows_;
    }
    if (oread_.out && !ofmap_reads.empty()) {
        writeRow(oread_, clk, ofmap_reads);
        ++rows_;
        ++oreadRows_;
    }
    if (ofmap_.out && !ofmap_writes.empty()) {
        writeRow(ofmap_, clk, ofmap_writes);
        ++rows_;
    }
}

TracingMemory::TracingMemory(MainMemory& inner, std::uint32_t word_bytes)
    : inner_(inner), wordBytes_(word_bytes == 0 ? 1 : word_bytes)
{
    stats_ = inner_.stats();
}

Cycle
TracingMemory::issueRead(Addr addr, Count words, Cycle now)
{
    records_.push_back({now, addr * wordBytes_, words * wordBytes_,
                        false});
    const Cycle done = inner_.issueRead(addr, words, now);
    stats_ = inner_.stats();
    return done;
}

Cycle
TracingMemory::issueWrite(Addr addr, Count words, Cycle now)
{
    records_.push_back({now, addr * wordBytes_, words * wordBytes_,
                        true});
    const Cycle done = inner_.issueWrite(addr, words, now);
    stats_ = inner_.stats();
    return done;
}

void
writeMemTrace(std::ostream& out,
              const std::vector<MemTraceRecord>& records, bool header)
{
    if (header)
        out << "# cycle, address, bytes, type\n";
    for (const auto& rec : records) {
        out << rec.cycle << ", " << rec.byteAddr << ", " << rec.bytes
            << ", " << (rec.write ? 'W' : 'R') << "\n";
    }
}

std::vector<MemTraceRecord>
readMemTrace(std::istream& in)
{
    std::vector<MemTraceRecord> records;
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed[0] == '#')
            continue;
        const auto cells = splitCsvLine(trimmed);
        if (cells.size() < 4)
            fatal("memory trace line %d: expected 4 fields", line_no);
        MemTraceRecord rec;
        char* end = nullptr;
        rec.cycle = std::strtoull(cells[0].c_str(), &end, 0);
        if (*end != '\0')
            fatal("memory trace line %d: bad cycle '%s'", line_no,
                  cells[0].c_str());
        rec.byteAddr = std::strtoull(cells[1].c_str(), &end, 0);
        if (*end != '\0')
            fatal("memory trace line %d: bad address '%s'", line_no,
                  cells[1].c_str());
        rec.bytes = std::strtoull(cells[2].c_str(), &end, 0);
        if (*end != '\0')
            fatal("memory trace line %d: bad size '%s'", line_no,
                  cells[2].c_str());
        if (cells[3] == "W" || cells[3] == "w") {
            rec.write = true;
        } else if (cells[3] == "R" || cells[3] == "r") {
            rec.write = false;
        } else {
            fatal("memory trace line %d: bad type '%s'", line_no,
                  cells[3].c_str());
        }
        records.push_back(rec);
    }
    return records;
}

} // namespace scalesim::systolic
