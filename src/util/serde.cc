#include "util/serde.h"

namespace fsjoin {

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

void PutZigzagVarint64(std::string* dst, int64_t v) {
  PutVarint64(dst, (static_cast<uint64_t>(v) << 1) ^
                       static_cast<uint64_t>(v >> 63));
}

void PutFixed32BE(std::string* dst, uint32_t v) {
  dst->push_back(static_cast<char>((v >> 24) & 0xff));
  dst->push_back(static_cast<char>((v >> 16) & 0xff));
  dst->push_back(static_cast<char>((v >> 8) & 0xff));
  dst->push_back(static_cast<char>(v & 0xff));
}

void PutFixed64BE(std::string* dst, uint64_t v) {
  PutFixed32BE(dst, static_cast<uint32_t>(v >> 32));
  PutFixed32BE(dst, static_cast<uint32_t>(v & 0xffffffffULL));
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

void PutUint32Vector(std::string* dst, const std::vector<uint32_t>& v) {
  PutVarint64(dst, v.size());
  for (uint32_t x : v) PutVarint32(dst, x);
}

Status Decoder::GetVarint64(uint64_t* v) {
  uint64_t result = 0;
  int shift = 0;
  while (pos_ < data_.size()) {
    unsigned char byte = static_cast<unsigned char>(data_[pos_++]);
    if (shift >= 63 && byte > 1) {
      return Status::OutOfRange("varint64 overflow");
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
    shift += 7;
  }
  return Status::OutOfRange("truncated varint64");
}

Status Decoder::GetVarint32(uint32_t* v) {
  uint64_t wide = 0;
  FSJOIN_RETURN_NOT_OK(GetVarint64(&wide));
  if (wide > 0xffffffffULL) return Status::OutOfRange("varint32 overflow");
  *v = static_cast<uint32_t>(wide);
  return Status::OK();
}

Status Decoder::GetZigzagVarint64(int64_t* v) {
  uint64_t zigzag = 0;
  FSJOIN_RETURN_NOT_OK(GetVarint64(&zigzag));
  *v = static_cast<int64_t>(zigzag >> 1) ^ -static_cast<int64_t>(zigzag & 1);
  return Status::OK();
}

Status Decoder::GetFixed32BE(uint32_t* v) {
  if (remaining() < 4) return Status::OutOfRange("truncated fixed32");
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
  *v = (static_cast<uint32_t>(p[0]) << 24) |
       (static_cast<uint32_t>(p[1]) << 16) |
       (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
  pos_ += 4;
  return Status::OK();
}

Status Decoder::GetFixed64BE(uint64_t* v) {
  uint32_t hi = 0, lo = 0;
  FSJOIN_RETURN_NOT_OK(GetFixed32BE(&hi));
  FSJOIN_RETURN_NOT_OK(GetFixed32BE(&lo));
  *v = (static_cast<uint64_t>(hi) << 32) | lo;
  return Status::OK();
}

Status Decoder::GetLengthPrefixed(std::string_view* value) {
  uint64_t len = 0;
  FSJOIN_RETURN_NOT_OK(GetVarint64(&len));
  if (len > remaining()) return Status::OutOfRange("truncated string");
  *value = data_.substr(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status Decoder::GetUint32Vector(std::vector<uint32_t>* v) {
  uint64_t n = 0;
  FSJOIN_RETURN_NOT_OK(GetVarint64(&n));
  if (n > remaining()) {
    // Each element takes at least one byte, so n > remaining is malformed.
    return Status::OutOfRange("truncated uint32 vector");
  }
  v->clear();
  v->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint32_t x = 0;
    FSJOIN_RETURN_NOT_OK(GetVarint32(&x));
    v->push_back(x);
  }
  return Status::OK();
}

}  // namespace fsjoin
