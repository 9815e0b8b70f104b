/**
 * @file
 * Tiny binary serialization substrate for cache payloads and their disk
 * persistence: a ByteWriter appending fixed-width little-endian fields
 * to a byte string, and a bounds-checked ByteReader that *never* reads
 * past the end — a truncated or corrupted buffer flips ok() to false
 * and every subsequent read returns a zero value, so callers can
 * validate once at the end instead of guarding every field.
 */

#ifndef SCALESIM_COMMON_SERIALIZE_HH
#define SCALESIM_COMMON_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace scalesim
{

/** Append-only binary encoder (host-endian fixed-width fields). */
class ByteWriter
{
  public:
    template <typename T>
    void
    put(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto* bytes = reinterpret_cast<const char*>(&value);
        buffer_.append(bytes, sizeof(T));
    }

    void
    putString(std::string_view text)
    {
        put(static_cast<std::uint64_t>(text.size()));
        buffer_.append(text.data(), text.size());
    }

    const std::string& buffer() const { return buffer_; }
    std::string take() { return std::move(buffer_); }
    std::size_t size() const { return buffer_.size(); }

  private:
    std::string buffer_;
};

/** Bounds-checked binary decoder; see file comment. */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view buffer) : buffer_(buffer) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        if (!ok_ || buffer_.size() - pos_ < sizeof(T)) {
            ok_ = false;
            return value;
        }
        std::memcpy(&value, buffer_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return value;
    }

    std::string
    getString()
    {
        const std::uint64_t size = get<std::uint64_t>();
        if (!ok_ || buffer_.size() - pos_ < size) {
            ok_ = false;
            return {};
        }
        std::string out(buffer_.data() + pos_,
                        static_cast<std::size_t>(size));
        pos_ += static_cast<std::size_t>(size);
        return out;
    }

    /** False once any read ran past the end of the buffer. */
    bool ok() const { return ok_; }
    /** True when every byte has been consumed (and no read failed). */
    bool atEnd() const { return ok_ && pos_ == buffer_.size(); }
    std::size_t remaining() const { return buffer_.size() - pos_; }

  private:
    std::string_view buffer_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace scalesim

#endif // SCALESIM_COMMON_SERIALIZE_HH
