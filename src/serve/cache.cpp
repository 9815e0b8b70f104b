#include "serve/cache.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/hash.hpp"
#include "common/log.hpp"

namespace scalesim::serve
{

namespace
{

constexpr char kMagic[4] = {'S', 'S', 'L', 'C'};
constexpr std::uint32_t kVersion = 1;
/** Reject persisted payloads claiming more than this (corruption). */
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

} // namespace

const LayerResultCache::Entry*
LayerResultCache::touchLocked(std::uint64_t key)
{
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++stats_.misses;
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second.lruPos);
    ++stats_.hits;
    return &it->second;
}

bool
LayerResultCache::lookup(std::uint64_t key, std::string& payload)
{
    MutexLock lock(mutex_);
    const Entry* entry = touchLocked(key);
    if (entry)
        payload = entry->payload;
    return entry != nullptr;
}

bool
LayerResultCache::touch(std::uint64_t key)
{
    MutexLock lock(mutex_);
    return touchLocked(key) != nullptr;
}

void
LayerResultCache::insert(std::uint64_t key, std::string payload)
{
    MutexLock lock(mutex_);
    if (budgetBytes_ != 0 && payload.size() > budgetBytes_)
        return; // would evict the whole cache for one entry
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        // Concurrent workers can race to compute the same layer; the
        // payload is a pure function of the key, so keep the first.
        lru_.splice(lru_.begin(), lru_, it->second.lruPos);
        return;
    }
    bytes_ += payload.size();
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(payload), lru_.begin()});
    ++stats_.inserts;
    evictToBudget();
}

void
LayerResultCache::evictToBudget()
{
    if (budgetBytes_ == 0)
        return;
    while (bytes_ > budgetBytes_ && !lru_.empty()) {
        const std::uint64_t victim = lru_.back();
        auto it = entries_.find(victim);
        bytes_ -= it->second.payload.size();
        entries_.erase(it);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

CacheStats
LayerResultCache::stats() const
{
    MutexLock lock(mutex_);
    CacheStats snap = stats_;
    snap.bytes = bytes_;
    snap.entries = entries_.size();
    return snap;
}

bool
LayerResultCache::save(const std::string& path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(kMagic, sizeof(kMagic));
        const std::uint32_t version = kVersion;
        out.write(reinterpret_cast<const char*>(&version),
                  sizeof(version));
        MutexLock lock(mutex_);
        // Walk LRU back-to-front so a reload preserves recency order:
        // the most recently used entry is written last and therefore
        // refreshed last on load.
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            const Entry& entry = entries_.at(*it);
            const std::uint64_t key = *it;
            const std::uint64_t size = entry.payload.size();
            const std::uint64_t checksum =
                Fnv1a::of(entry.payload.data(), entry.payload.size());
            out.write(reinterpret_cast<const char*>(&key), sizeof(key));
            out.write(reinterpret_cast<const char*>(&size),
                      sizeof(size));
            out.write(entry.payload.data(),
                      static_cast<std::streamsize>(size));
            out.write(reinterpret_cast<const char*>(&checksum),
                      sizeof(checksum));
        }
        if (!out)
            return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
LayerResultCache::load(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false; // cold start, not an error
    char magic[4] = {};
    std::uint32_t version = 0;
    in.read(magic, sizeof(magic));
    in.read(reinterpret_cast<char*>(&version), sizeof(version));
    if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0
        || version != kVersion) {
        warn("cache file %s: bad header, ignoring", path.c_str());
        MutexLock lock(mutex_);
        ++stats_.loadRejected;
        return false;
    }
    std::uint64_t accepted = 0, rejected = 0;
    while (true) {
        std::uint64_t key = 0, size = 0;
        in.read(reinterpret_cast<char*>(&key), sizeof(key));
        if (in.gcount() == 0)
            break; // clean EOF
        in.read(reinterpret_cast<char*>(&size), sizeof(size));
        if (!in || size > kMaxPayloadBytes) {
            ++rejected;
            break;
        }
        std::string payload(static_cast<std::size_t>(size), '\0');
        in.read(payload.data(), static_cast<std::streamsize>(size));
        std::uint64_t checksum = 0;
        in.read(reinterpret_cast<char*>(&checksum), sizeof(checksum));
        if (!in
            || Fnv1a::of(payload.data(), payload.size()) != checksum) {
            ++rejected;
            break; // trailing entries are unreliable past corruption
        }
        insert(key, std::move(payload));
        ++accepted;
    }
    if (rejected > 0) {
        warn("cache file %s: dropped corrupt tail (%llu entries kept)",
             path.c_str(), static_cast<unsigned long long>(accepted));
    }
    MutexLock lock(mutex_);
    stats_.loadedEntries += accepted;
    stats_.loadRejected += rejected;
    return true;
}

} // namespace scalesim::serve
