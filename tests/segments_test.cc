// Vertical segmentation (Definitions 5-6): segments must partition the
// record exactly (disjoint cover, consistent head/tail counts), land in the
// right fragment, and round-trip through the MR serialization.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pivots.h"
#include "core/segments.h"
#include "sim/set_ops.h"
#include "test_util.h"
#include "util/random.h"

namespace fsjoin {
namespace {

OrderedRecord MakeRecord(RecordId id, std::vector<TokenRank> tokens) {
  return OrderedRecord{id, std::move(tokens)};
}

TEST(SegmentsTest, PaperExampleSplit) {
  // Tokens {B=1,C=2,I=8,J=9,K=10} with pivots at ranks {3, 6, 9}
  // (like Figure 2's pivots {C, F, I} in dictionary order).
  OrderedRecord s1 = MakeRecord(0, {1, 2, 8, 9, 10});
  SegmentSplit split = SplitIntoSegments(s1, {3, 6, 9});
  ASSERT_EQ(split.segments.size(), 3u);
  EXPECT_EQ(split.fragment_ids[0], 0u);  // {1, 2}
  EXPECT_EQ(split.segments[0].tokens, (std::vector<TokenRank>{1, 2}));
  EXPECT_EQ(split.fragment_ids[1], 2u);  // {8}
  EXPECT_EQ(split.segments[1].tokens, (std::vector<TokenRank>{8}));
  EXPECT_EQ(split.fragment_ids[2], 3u);  // {9, 10}
  EXPECT_EQ(split.segments[2].tokens, (std::vector<TokenRank>{9, 10}));
  // Head/tail bookkeeping.
  EXPECT_EQ(split.segments[0].head, 0u);
  EXPECT_EQ(split.segments[0].Tail(), 3u);
  EXPECT_EQ(split.segments[1].head, 2u);
  EXPECT_EQ(split.segments[1].Tail(), 2u);
  EXPECT_EQ(split.segments[2].head, 3u);
  EXPECT_EQ(split.segments[2].Tail(), 0u);
}

TEST(SegmentsTest, EmptySegmentsAreSkipped) {
  OrderedRecord rec = MakeRecord(3, {0, 100});
  SegmentSplit split = SplitIntoSegments(rec, {10, 20, 30});
  ASSERT_EQ(split.segments.size(), 2u);
  EXPECT_EQ(split.fragment_ids[0], 0u);
  EXPECT_EQ(split.fragment_ids[1], 3u);
}

TEST(SegmentsTest, NoPivotsSingleSegment) {
  OrderedRecord rec = MakeRecord(1, {5, 9, 42});
  SegmentSplit split = SplitIntoSegments(rec, {});
  ASSERT_EQ(split.segments.size(), 1u);
  EXPECT_EQ(split.fragment_ids[0], 0u);
  EXPECT_EQ(split.segments[0].tokens.size(), 3u);
  EXPECT_EQ(split.segments[0].head, 0u);
  EXPECT_EQ(split.segments[0].Tail(), 0u);
}

TEST(SegmentsTest, EmptyRecordNoSegments) {
  SegmentSplit split = SplitIntoSegments(MakeRecord(0, {}), {5, 10});
  EXPECT_TRUE(split.segments.empty());
}

// Property (Definition 5): segments are a disjoint, order-preserving cover
// of the record; every token lands in the fragment SegmentOfRank assigns.
TEST(SegmentsTest, SplitIsDisjointCover) {
  Rng rng(17);
  for (int iter = 0; iter < 300; ++iter) {
    // Random sorted-unique record over ranks < 200 and random pivots.
    std::vector<TokenRank> tokens;
    for (TokenRank r = 0; r < 200; ++r) {
      if (rng.NextBool(0.15)) tokens.push_back(r);
    }
    std::vector<TokenRank> pivots;
    for (TokenRank r = 1; r < 200; ++r) {
      if (rng.NextBool(0.05)) pivots.push_back(r);
    }
    OrderedRecord rec = MakeRecord(7, tokens);
    SegmentSplit split = SplitIntoSegments(rec, pivots);

    std::vector<TokenRank> reassembled;
    uint32_t position = 0;
    for (size_t i = 0; i < split.segments.size(); ++i) {
      const SegmentRecord& seg = split.segments[i];
      EXPECT_EQ(seg.rid, 7u);
      EXPECT_EQ(seg.record_size, tokens.size());
      EXPECT_EQ(seg.head, position);
      EXPECT_FALSE(seg.tokens.empty());
      for (TokenRank t : seg.tokens) {
        EXPECT_EQ(SegmentOfRank(pivots, t), split.fragment_ids[i]);
        reassembled.push_back(t);
      }
      position += seg.tokens.size();
      if (i > 0) {
        EXPECT_GT(split.fragment_ids[i], split.fragment_ids[i - 1]);
      }
    }
    EXPECT_EQ(reassembled, tokens);
  }
}

TEST(SegmentsTest, SerdeRoundTrip) {
  SegmentRecord seg;
  seg.rid = 12345;
  seg.record_size = 50;
  seg.head = 7;
  seg.tokens = {3, 9, 27, 81};
  std::string buf;
  EncodeSegment(seg, &buf);
  SegmentRecord decoded;
  ASSERT_TRUE(DecodeSegment(buf, &decoded).ok());
  EXPECT_EQ(decoded.rid, seg.rid);
  EXPECT_EQ(decoded.record_size, seg.record_size);
  EXPECT_EQ(decoded.head, seg.head);
  EXPECT_EQ(decoded.tokens, seg.tokens);
  EXPECT_EQ(decoded.Tail(), 50u - 7u - 4u);
}

TEST(SegmentsTest, SerdeRejectsCorruption) {
  SegmentRecord seg;
  seg.rid = 1;
  seg.record_size = 3;
  seg.head = 0;
  seg.tokens = {1, 2, 3};
  std::string buf;
  EncodeSegment(seg, &buf);
  SegmentRecord decoded;
  EXPECT_FALSE(
      DecodeSegment(std::string_view(buf).substr(0, buf.size() - 1), &decoded)
          .ok());
  EXPECT_FALSE(DecodeSegment(buf + "x", &decoded).ok());
  EXPECT_FALSE(DecodeSegment("", &decoded).ok());
}

// ---- SegmentBatch (columnar storage) --------------------------------------

TEST(SegmentBatchTest, FromRecordsMatchesRows) {
  Rng rng(31);
  std::vector<SegmentRecord> rows;
  for (int i = 0; i < 12; ++i) {
    SegmentRecord seg;
    seg.rid = static_cast<RecordId>(100 + i);
    seg.head = static_cast<uint32_t>(i % 3);
    for (TokenRank r = 0; r < 40; ++r) {
      if (rng.NextBool(0.25)) seg.tokens.push_back(r);
    }
    if (seg.tokens.empty()) seg.tokens.push_back(0);
    seg.record_size = seg.head + static_cast<uint32_t>(seg.tokens.size()) + 2;
    rows.push_back(std::move(seg));
  }
  SegmentBatch batch = SegmentBatch::FromRecords(rows);
  ASSERT_TRUE(batch.sealed());
  ASSERT_EQ(batch.size(), rows.size());
  size_t total = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.rid(i), rows[i].rid);
    EXPECT_EQ(batch.record_size(i), rows[i].record_size);
    EXPECT_EQ(batch.head(i), rows[i].head);
    EXPECT_EQ(batch.length(i), rows[i].tokens.size());
    EXPECT_EQ(batch.Tail(i), rows[i].Tail());
    SegmentView view = batch.View(i);
    EXPECT_EQ(view.rid, rows[i].rid);
    for (size_t k = 0; k < rows[i].tokens.size(); ++k) {
      EXPECT_EQ(batch.tokens(i)[k], rows[i].tokens[k]);
    }
    total += rows[i].tokens.size();
  }
  EXPECT_EQ(batch.total_tokens(), total);
}

TEST(SegmentBatchTest, AppendEncodedMatchesDecodeSegment) {
  // Shuffle values decode straight into the arena; the columns must agree
  // with the row-oriented DecodeSegment on the same bytes.
  std::vector<SegmentRecord> rows(3);
  rows[0] = {41, 9, 2, {5, 8, 13}};
  rows[1] = {7, 4, 0, {1, 2, 3, 4}};
  rows[2] = {1000000, 123456, 77, {99999}};
  SegmentBatch batch;
  batch.Reserve(rows.size(), 8);
  for (const SegmentRecord& seg : rows) {
    std::string buf;
    EncodeSegment(seg, &buf);
    ASSERT_TRUE(batch.AppendEncoded(buf).ok());
  }
  batch.Seal();
  ASSERT_EQ(batch.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.rid(i), rows[i].rid);
    EXPECT_EQ(batch.record_size(i), rows[i].record_size);
    EXPECT_EQ(batch.head(i), rows[i].head);
    ASSERT_EQ(batch.length(i), rows[i].tokens.size());
    for (size_t k = 0; k < rows[i].tokens.size(); ++k) {
      EXPECT_EQ(batch.tokens(i)[k], rows[i].tokens[k]);
    }
  }
}

TEST(SegmentBatchTest, AppendEncodedRollsBackOnCorruption) {
  SegmentRecord good = {5, 6, 1, {2, 4, 6}};
  std::string buf;
  EncodeSegment(good, &buf);
  SegmentBatch batch;
  // Truncated value: the batch must stay exactly as before the call.
  EXPECT_FALSE(
      batch.AppendEncoded(std::string_view(buf).substr(0, buf.size() - 1))
          .ok());
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.total_tokens(), 0u);
  // Trailing garbage is rejected too.
  EXPECT_FALSE(batch.AppendEncoded(buf + "x").ok());
  EXPECT_TRUE(batch.empty());
  // A good value still appends after failures.
  ASSERT_TRUE(batch.AppendEncoded(buf).ok());
  batch.Seal();
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.length(0), 3u);
}

// Random segments with ranks spread over every varint width.
std::vector<SegmentRecord> RandomSegments(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<SegmentRecord> rows(n);
  for (size_t i = 0; i < n; ++i) {
    SegmentRecord& seg = rows[i];
    seg.rid = static_cast<RecordId>(rng.NextBounded(1u << 30));
    TokenRank rank = static_cast<TokenRank>(rng.NextBounded(1u << 20));
    const size_t len = rng.NextBounded(40);
    for (size_t k = 0; k < len; ++k) {
      rank += 1 + static_cast<TokenRank>(rng.NextBounded(5000));
      seg.tokens.push_back(rank);
    }
    seg.head = static_cast<uint32_t>(rng.NextBounded(100));
    seg.record_size =
        seg.head + static_cast<uint32_t>(len + rng.NextBounded(100));
  }
  return rows;
}

void ExpectBatchEqualsRows(const SegmentBatch& batch,
                           const std::vector<SegmentRecord>& rows) {
  ASSERT_EQ(batch.size(), rows.size());
  size_t total = 0;
  for (uint32_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch.rid(i), rows[i].rid);
    ASSERT_EQ(batch.record_size(i), rows[i].record_size);
    ASSERT_EQ(batch.head(i), rows[i].head);
    ASSERT_EQ(std::vector<TokenRank>(batch.tokens(i),
                                     batch.tokens(i) + batch.length(i)),
              rows[i].tokens);
    total += rows[i].tokens.size();
  }
  EXPECT_EQ(batch.total_tokens(), total);
}

TEST(SegmentBatchTest, LargeAppendEncodedBatchMatchesDecodeSegment) {
  // 50K segments through the reducer's path (one reserve from the summed
  // value bytes, then AppendEncoded per value) and through the unreserved
  // path (geometric arena growth): both must equal DecodeSegment row by row.
  const std::vector<SegmentRecord> rows = RandomSegments(50000, 17);
  std::vector<std::string> values(rows.size());
  size_t value_bytes = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EncodeSegment(rows[i], &values[i]);
    value_bytes += values[i].size();
  }
  std::vector<SegmentRecord> decoded(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(DecodeSegment(values[i], &decoded[i]).ok());
  }
  SegmentBatch reserved;
  reserved.Reserve(values.size(), value_bytes);
  SegmentBatch grown;
  for (const std::string& v : values) {
    ASSERT_TRUE(reserved.AppendEncoded(v).ok());
    ASSERT_TRUE(grown.AppendEncoded(v).ok());
  }
  reserved.Seal();
  grown.Seal();
  ExpectBatchEqualsRows(reserved, decoded);
  ExpectBatchEqualsRows(grown, decoded);
}

TEST(SegmentBatchTest, RollbackAfterCorruptionLateInALargeBatch) {
  const std::vector<SegmentRecord> rows = RandomSegments(20000, 29);
  SegmentBatch batch;
  for (const SegmentRecord& seg : rows) {
    std::string buf;
    EncodeSegment(seg, &buf);
    ASSERT_TRUE(batch.AppendEncoded(buf).ok());
  }
  const size_t tokens_before = batch.total_tokens();
  // A long segment whose last token varint is cut short, then one with
  // trailing bytes: each fails after decoding tokens into the arena, and
  // the batch must roll back to exactly its previous contents.
  SegmentRecord bad = {3, 500, 0, {}};
  for (TokenRank r = 0; r < 400; ++r) bad.tokens.push_back(100000 + r * 3);
  std::string buf;
  EncodeSegment(bad, &buf);
  EXPECT_FALSE(
      batch.AppendEncoded(std::string_view(buf).substr(0, buf.size() - 1))
          .ok());
  EXPECT_EQ(batch.total_tokens(), tokens_before);
  EXPECT_FALSE(batch.AppendEncoded(buf + "x").ok());
  EXPECT_EQ(batch.total_tokens(), tokens_before);
  // The batch keeps appending after the failures.
  ASSERT_TRUE(batch.AppendEncoded(buf).ok());
  batch.Seal();
  std::vector<SegmentRecord> expected = rows;
  expected.push_back(bad);
  ExpectBatchEqualsRows(batch, expected);
}

TEST(SegmentBatchTest, SealedBitmapsAreSound) {
  // Soundness of the word-packed gate: disjoint bitmaps must imply an
  // actually-empty overlap for every pair in the batch.
  Rng rng(91);
  std::vector<SegmentRecord> rows;
  for (int i = 0; i < 30; ++i) {
    SegmentRecord seg;
    seg.rid = static_cast<RecordId>(i);
    for (TokenRank r = 500; r < 700; ++r) {
      if (rng.NextBool(0.05)) seg.tokens.push_back(r);
    }
    if (seg.tokens.empty()) seg.tokens.push_back(500);
    seg.record_size = static_cast<uint32_t>(seg.tokens.size());
    rows.push_back(std::move(seg));
  }
  SegmentBatch batch = SegmentBatch::FromRecords(rows);
  for (size_t i = 0; i < batch.size(); ++i) {
    for (size_t j = i + 1; j < batch.size(); ++j) {
      if ((batch.bitmap(i) & batch.bitmap(j)) != 0) continue;
      EXPECT_EQ(SortedOverlap(batch.tokens(i), batch.length(i),
                              batch.tokens(j), batch.length(j)),
                0u);
    }
  }
}

}  // namespace
}  // namespace fsjoin
