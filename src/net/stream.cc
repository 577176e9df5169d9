#include "net/stream.h"

#include <utility>

#include "util/serde.h"

namespace fsjoin::net {

Status ChunkStreamWriter::Add(std::string_view key, std::string_view value) {
  AppendChunkRecord(&chunk_, key, value);
  records_ += 1;
  payload_bytes_ += key.size() + value.size();
  if (chunk_.size() >= kChunkTargetBytes) {
    return FlushChunk();
  }
  return Status::OK();
}

Status ChunkStreamWriter::FlushChunk() {
  if (chunk_.empty()) return Status::OK();
  FSJOIN_RETURN_NOT_OK(SendFrame(socket_, chunk_type_, chunk_));
  chunk_.clear();
  chunks_ += 1;
  return Status::OK();
}

Status ChunkStreamWriter::Finish() {
  FSJOIN_RETURN_NOT_OK(FlushChunk());
  StreamTrailer trailer;
  trailer.records = records_;
  trailer.payload_bytes = payload_bytes_;
  trailer.chunks = chunks_;
  std::string payload;
  trailer.EncodeTo(&payload);
  return SendFrame(socket_, end_type_, payload);
}

Status ReceiveStream(Socket* socket, MsgType chunk_type, MsgType end_type,
                     ReceivedStream* out) {
  out->chunks.clear();
  for (;;) {
    Frame frame;
    FSJOIN_RETURN_NOT_OK(RecvFrame(socket, &frame));
    if (frame.type == chunk_type) {
      if (frame.payload.empty()) {
        return Status::Corruption("record stream: empty chunk frame");
      }
      out->chunks.push_back(std::move(frame.payload));
    } else if (frame.type == end_type) {
      FSJOIN_ASSIGN_OR_RETURN(out->trailer,
                              StreamTrailer::Decode(frame.payload));
      break;
    } else if (frame.type == MsgType::kTaskError) {
      FSJOIN_ASSIGN_OR_RETURN(TaskErrorMsg msg,
                              TaskErrorMsg::Decode(frame.payload));
      return msg.error;
    } else {
      return Status::Corruption(std::string("record stream: unexpected ") +
                                MsgTypeName(frame.type) + " frame");
    }
  }
  if (out->trailer.chunks != out->chunks.size()) {
    return Status::Corruption(
        "record stream: trailer says " + std::to_string(out->trailer.chunks) +
        " chunks, got " + std::to_string(out->chunks.size()));
  }
  return Status::OK();
}

Status ReceivedRecordStream::Next(bool* has_record, std::string_view* key,
                                  std::string_view* value) {
  *has_record = false;
  std::vector<std::string>& chunks = stream_->chunks;
  while (chunk_ < chunks.size() && pos_ == chunks[chunk_].size()) {
    std::string().swap(chunks[chunk_]);  // drained: free it now
    chunk_ += 1;
    pos_ = 0;
  }
  if (chunk_ == chunks.size()) {
    const StreamTrailer& trailer = stream_->trailer;
    if (trailer.records != records_ ||
        trailer.payload_bytes != payload_bytes_) {
      return Status::Corruption(
          "record stream: trailer mismatch (got " + std::to_string(records_) +
          " records / " + std::to_string(payload_bytes_) +
          " bytes, trailer says " + std::to_string(trailer.records) + " / " +
          std::to_string(trailer.payload_bytes) + ")");
    }
    return Status::OK();
  }
  const std::string_view chunk = chunks[chunk_];
  Decoder dec(chunk.substr(pos_));
  uint32_t key_len = 0, val_len = 0;
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&key_len));
  FSJOIN_RETURN_NOT_OK(dec.GetVarint32(&val_len));
  const size_t header = chunk.size() - pos_ - dec.remaining();
  if (dec.remaining() < static_cast<size_t>(key_len) + val_len) {
    return Status::Corruption("record stream: record overruns chunk");
  }
  const char* base = chunk.data() + pos_ + header;
  *key = std::string_view(base, key_len);
  *value = std::string_view(base + key_len, val_len);
  pos_ += header + key_len + val_len;
  records_ += 1;
  payload_bytes_ += key_len + val_len;
  *has_record = true;
  return Status::OK();
}

}  // namespace fsjoin::net
