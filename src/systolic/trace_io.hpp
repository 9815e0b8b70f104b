/**
 * @file
 * Cycle-accurate trace emission — SCALE-Sim's signature output files.
 *
 * SramTraceWriter taps the demand stream and writes the classic
 * per-cycle SRAM traces ("cycle, addr, addr, ..."), one stream per
 * operand. TracingMemory decorates any MainMemory and logs every
 * main-memory transaction in the paper's §V-B format (request cycle,
 * byte address, R/W), which readTrace/writeTrace round-trip to files
 * for the Ramulator-style standalone flow (generate a trace once,
 * replay it against many memory configurations).
 */

#ifndef SCALESIM_SYSTOLIC_TRACE_IO_HH
#define SCALESIM_SYSTOLIC_TRACE_IO_HH

#include <iosfwd>
#include <vector>

#include "systolic/demand.hpp"
#include "systolic/memory.hpp"

namespace scalesim::systolic
{

/**
 * Writes per-cycle SRAM demand traces; null streams are skipped.
 * `ofmap_reads` carries the partial-sum fetches of accumulating WS/IS
 * row folds (rf > 0) as a fourth stream so replayed traces account
 * for the full OFMAP SRAM traffic.
 *
 * Rows are formatted with std::to_chars into per-stream staging
 * buffers and handed to the ostream in large blocks, bypassing the
 * per-value iostream machinery that dominated trace-mode wall clock.
 * Systolic demand is highly structured: consecutive rows of a stream
 * are usually the previous row shifted by one constant (ifmap walks
 * +1, filter strides by the tile width), so the writer keeps the text
 * of the previous row and, when the constant-delta pattern holds,
 * copies each number's digits and decimal-adds the delta in place —
 * cheaper than re-deriving every digit with to_chars. Buffers drain
 * at endLayer(), flush(), and destruction; read the target streams
 * only after one of those points.
 */
class SramTraceWriter : public DemandVisitor
{
  public:
    SramTraceWriter(std::ostream* ifmap_reads,
                    std::ostream* filter_reads,
                    std::ostream* ofmap_writes,
                    std::ostream* ofmap_reads = nullptr);
    ~SramTraceWriter() override;

    void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
               std::span<const Addr> filter_reads,
               std::span<const Addr> ofmap_reads,
               std::span<const Addr> ofmap_writes) override;

    void endLayer(Cycle total_cycles) override;

    /** Drain every staging buffer into its stream. */
    void flush();

    Count rowsWritten() const { return rows_; }
    /** Rows of the ofmap accumulate-read stream alone. */
    Count ofmapReadRows() const { return oreadRows_; }

  private:
    /**
     * One output stream plus its staging buffer and the location of
     * the previous row's digits inside it (for the constant-delta
     * patch fast path). Offsets rather than pointers: the buffer may
     * be resized, and a flush invalidates the row wholesale via
     * `havePrev`.
     */
    struct Sink
    {
        std::ostream* out = nullptr;
        std::vector<char> buf;
        std::size_t used = 0;
        std::vector<Addr> baseVals; ///< last slow-path row's values
        Addr accum = 0; ///< delta sum applied since baseVals was set
        std::vector<std::uint32_t> prevOff;
        std::vector<std::uint8_t> prevLen;
        bool havePrev = false;
    };

    static void writeRow(Sink& sink, Cycle clk,
                         std::span<const Addr> addrs);
    static void patchRow(Sink& sink, char*& p,
                         std::span<const Addr> addrs, Addr delta);
    static void flushSink(Sink& sink);

    Sink ifmap_;
    Sink filter_;
    Sink ofmap_;
    Sink oread_;
    Count rows_ = 0;
    Count oreadRows_ = 0;
};

/** One §V-B main-memory trace record. */
struct MemTraceRecord
{
    Cycle cycle = 0;   ///< request (issue) cycle, core clock
    Addr byteAddr = 0; ///< byte address
    Count bytes = 0;   ///< transaction size
    bool write = false;

    bool operator==(const MemTraceRecord&) const = default;
};

/**
 * MainMemory decorator that records every transaction it forwards.
 * Transparent: timing, lastIssueWait() and every MemoryStats field
 * mirror the inner model.
 */
class TracingMemory : public MainMemory
{
  public:
    TracingMemory(MainMemory& inner, std::uint32_t word_bytes = 1);

    Cycle issueRead(Addr addr, Count words, Cycle now) override;
    Cycle issueWrite(Addr addr, Count words, Cycle now) override;

    Cycle lastIssueWait() const override { return inner_.lastIssueWait(); }

    const std::vector<MemTraceRecord>& records() const
    {
        return records_;
    }
    void clearRecords() { records_.clear(); }

  private:
    MainMemory& inner_;
    std::uint32_t wordBytes_;
    std::vector<MemTraceRecord> records_;
};

/** Write records as "cycle, address, bytes, R|W" CSV lines, after a
 *  column header unless `header` is false (a later part of a trace). */
void writeMemTrace(std::ostream& out,
                   const std::vector<MemTraceRecord>& records,
                   bool header = true);

/** Parse a trace written by writeMemTrace; fatal() on bad rows. */
std::vector<MemTraceRecord> readMemTrace(std::istream& in);

} // namespace scalesim::systolic

#endif // SCALESIM_SYSTOLIC_TRACE_IO_HH
