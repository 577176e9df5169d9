#ifndef FSJOIN_NET_STREAM_H_
#define FSJOIN_NET_STREAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "store/record_stream.h"
#include "util/status.h"

namespace fsjoin::net {

/// Writer half of a record stream over frames: buffers records into
/// ~kChunkTargetBytes chunks, sends each as one `chunk_type` frame, and
/// finishes with an `end_type` trailer carrying the totals the reader
/// cross-checks. Used for coordinator -> worker input runs (kTaskData/
/// kTaskDataEnd) and worker -> worker shuffle fetches (kShuffleChunk/
/// kShuffleEnd).
class ChunkStreamWriter {
 public:
  ChunkStreamWriter(Socket* socket, MsgType chunk_type, MsgType end_type)
      : socket_(socket), chunk_type_(chunk_type), end_type_(end_type) {}

  Status Add(std::string_view key, std::string_view value);

  /// Flushes the last chunk and sends the trailer. Call exactly once.
  Status Finish();

  uint64_t records() const { return records_; }
  uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  Status FlushChunk();

  Socket* socket_;
  MsgType chunk_type_;
  MsgType end_type_;
  std::string chunk_;
  uint64_t records_ = 0;
  uint64_t payload_bytes_ = 0;
  uint32_t chunks_ = 0;
};

/// Reader half: one record stream as received, its chunk frames'
/// payloads kept as they arrived (no record is re-packed) plus the
/// trailer. Streams are read whole because several can share one
/// connection, one after another: a pooled shuffle-fetch connection
/// carries the responses to all of a reduce task's requests to that
/// server, and a merge over them can pull from the second only once the
/// first is off the socket.
struct ReceivedStream {
  std::vector<std::string> chunks;
  StreamTrailer trailer;
};

/// Reads one whole stream — every `chunk_type` frame through the `end_type`
/// trailer — into *out, checking the trailer's chunk count. The record and
/// byte counts are checked when a ReceivedRecordStream drains it, so a
/// lost or replayed frame is Corruption, not silent data loss. A
/// kTaskError frame in place of a chunk fails with the sender's Status.
Status ReceiveStream(Socket* socket, MsgType chunk_type, MsgType end_type,
                     ReceivedStream* out);

/// The records of a ReceivedStream, in order, as views into its chunks;
/// once drained, the totals must match the trailer (Corruption if not).
/// Each chunk is freed as soon as the reader moves past it, so a stream
/// copied out record by record never holds much more than one chunk
/// beyond the copies. Retained shuffle partitions arrive key-sorted, which
/// makes this a valid merge source.
class ReceivedRecordStream : public store::RecordStream {
 public:
  /// `stream` is borrowed, must outlive this reader and is consumed by it.
  explicit ReceivedRecordStream(ReceivedStream* stream)
      : stream_(stream) {}

  Status Next(bool* has_record, std::string_view* key,
              std::string_view* value) override;

  uint64_t records() const { return records_; }
  uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  ReceivedStream* stream_;
  size_t chunk_ = 0;
  size_t pos_ = 0;
  uint64_t records_ = 0;
  uint64_t payload_bytes_ = 0;
};

}  // namespace fsjoin::net

#endif  // FSJOIN_NET_STREAM_H_
