#ifndef FSJOIN_UTIL_SERDE_H_
#define FSJOIN_UTIL_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace fsjoin {

/// Binary encoding helpers for MapReduce keys and values. Records flowing
/// through the MR engine are opaque byte strings (as in Hadoop); these
/// helpers give typed views on top.
///
/// Two integer encodings are provided:
///  * Varint (LEB128)     — compact, for values.
///  * BigEndian32/64      — fixed width, order-preserving, for keys that must
///                          sort correctly under bytewise comparison.

/// Appends an unsigned LEB128 varint.
void PutVarint64(std::string* dst, uint64_t v);
void PutVarint32(std::string* dst, uint32_t v);

/// Appends a signed integer as the varint of its zigzag code, so small
/// magnitudes of either sign take one byte.
void PutZigzagVarint64(std::string* dst, int64_t v);

/// Appends a 32/64-bit integer in big-endian order (bytewise-sortable).
void PutFixed32BE(std::string* dst, uint32_t v);
void PutFixed64BE(std::string* dst, uint64_t v);

/// Appends a length-prefixed byte string.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Appends a varint-length-prefixed vector of uint32 (each varint coded).
void PutUint32Vector(std::string* dst, const std::vector<uint32_t>& v);

/// Cursor-style decoder over a byte string. All Get* methods return an
/// error status on truncated or malformed input instead of crashing, so a
/// corrupted shuffle record surfaces as a job failure.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data), pos_(0) {}

  Status GetVarint64(uint64_t* v);
  Status GetVarint32(uint32_t* v);
  Status GetZigzagVarint64(int64_t* v);
  Status GetFixed32BE(uint32_t* v);
  Status GetFixed64BE(uint64_t* v);
  Status GetLengthPrefixed(std::string_view* value);
  Status GetUint32Vector(std::vector<uint32_t>* v);

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_;
};

}  // namespace fsjoin

#endif  // FSJOIN_UTIL_SERDE_H_
