#include "sim/minhash.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "sim/set_ops.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace fsjoin {

Status MinHashJoinConfig::Validate() const {
  // Negated range test, so NaN (every comparison false) fails too.
  if (!(theta > 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument(
        StrFormat("theta must be in (0, 1], got %f", theta));
  }
  if (num_hashes == 0 || bands == 0) {
    return Status::InvalidArgument("num_hashes and bands must be positive");
  }
  if (num_hashes % bands != 0) {
    return Status::InvalidArgument(
        StrFormat("bands (%u) must divide num_hashes (%u)", bands,
                  num_hashes));
  }
  return Status::OK();
}

double MinHashJoinConfig::CandidateProbability(double similarity) const {
  const double r = static_cast<double>(num_hashes / bands);
  return 1.0 - std::pow(1.0 - std::pow(similarity, r),
                        static_cast<double>(bands));
}

std::vector<uint64_t> MinHashSignature(const std::vector<TokenRank>& tokens,
                                       uint32_t num_hashes, uint64_t seed) {
  std::vector<uint64_t> signature(num_hashes,
                                  std::numeric_limits<uint64_t>::max());
  for (TokenRank token : tokens) {
    for (uint32_t h = 0; h < num_hashes; ++h) {
      // One cheap independent-ish hash per function: mix the token with a
      // per-function salt derived from the seed.
      uint64_t v = Mix64(static_cast<uint64_t>(token) +
                         Mix64(seed + 0x9e3779b97f4a7c15ULL * (h + 1)));
      signature[h] = std::min(signature[h], v);
    }
  }
  return signature;
}

double EstimateJaccard(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
  if (a.empty() || a.size() != b.size()) return 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

Result<JoinResultSet> MinHashJoin(const std::vector<OrderedRecord>& records,
                                  const MinHashJoinConfig& config,
                                  MinHashJoinStats* stats) {
  FSJOIN_RETURN_NOT_OK(config.Validate());
  const uint32_t rows = config.num_hashes / config.bands;

  std::vector<std::vector<uint64_t>> signatures;
  signatures.reserve(records.size());
  for (const OrderedRecord& rec : records) {
    signatures.push_back(
        MinHashSignature(rec.tokens, config.num_hashes, config.seed));
  }

  // Band buckets -> candidate pairs (deduplicated across bands).
  std::unordered_set<std::pair<uint32_t, uint32_t>, RidPairHash> candidates;
  std::unordered_map<uint64_t, std::vector<uint32_t>> buckets;
  for (uint32_t band = 0; band < config.bands; ++band) {
    buckets.clear();
    for (uint32_t i = 0; i < records.size(); ++i) {
      if (records[i].tokens.empty()) continue;
      uint64_t key = Mix64(band + 1);
      for (uint32_t r = 0; r < rows; ++r) {
        key = HashCombine(key, signatures[i][band * rows + r]);
      }
      buckets[key].push_back(i);
    }
    for (const auto& [key, members] : buckets) {
      for (size_t x = 0; x < members.size(); ++x) {
        for (size_t y = x + 1; y < members.size(); ++y) {
          uint32_t a = std::min(members[x], members[y]);
          uint32_t b = std::max(members[x], members[y]);
          candidates.insert({a, b});
        }
      }
    }
  }

  JoinResultSet results;
  uint64_t verified = 0;
  for (const auto& [ia, ib] : candidates) {
    const OrderedRecord& a = records[ia];
    const OrderedRecord& b = records[ib];
    const uint64_t required = MinOverlap(SimilarityFunction::kJaccard,
                                         config.theta, a.Size(), b.Size());
    const uint64_t c = SortedOverlapAtLeast(a.tokens, b.tokens, required);
    if (c == 0) continue;
    if (!PassesThreshold(SimilarityFunction::kJaccard, c, a.Size(), b.Size(),
                         config.theta)) {
      continue;
    }
    ++verified;
    results.push_back(SimilarPair{
        a.id, b.id,
        ComputeSimilarity(SimilarityFunction::kJaccard, c, a.Size(),
                          b.Size())});
  }
  if (stats != nullptr) {
    stats->candidate_pairs = candidates.size();
    stats->verified_pairs = verified;
  }
  NormalizeResult(&results);
  return results;
}

}  // namespace fsjoin
