#ifndef FSJOIN_SIM_GLOBAL_ORDER_H_
#define FSJOIN_SIM_GLOBAL_ORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "text/corpus.h"
#include "util/status.h"

namespace fsjoin {

/// A token rank in the global ordering: rank 0 is the *rarest* token (the
/// paper sorts by ascending term frequency so prefixes hold rare tokens).
using TokenRank = uint32_t;

/// The paper's global ordering O (Definition 3): a total order over the
/// token domain by ascending term frequency, ties broken by TokenId for
/// determinism.
class GlobalOrder {
 public:
  GlobalOrder() = default;

  /// Builds the ordering from explicit (token, frequency) pairs — the output
  /// of the MapReduce ordering job. `frequency[t]` is the term frequency of
  /// TokenId t; tokens never seen get frequency 0 and still receive ranks.
  static GlobalOrder FromFrequencies(std::vector<uint64_t> frequency);

  /// Convenience: builds directly from a corpus dictionary (serial path).
  static GlobalOrder FromCorpus(const Corpus& corpus);

  /// Rank of a token. Requires id < NumTokens().
  TokenRank RankOf(TokenId id) const { return rank_of_token_[id]; }

  /// Token holding a given rank.
  TokenId TokenAt(TokenRank rank) const { return token_at_rank_[rank]; }

  /// Term frequency of the token at `rank` (ascending in rank). Requires
  /// an ordering built from frequencies, not one rebuilt by DecodeRanks.
  uint64_t FrequencyAt(TokenRank rank) const {
    return frequency_[token_at_rank_[rank]];
  }

  size_t NumTokens() const { return token_at_rank_.size(); }

  /// Total term frequency over the whole domain (sum over tokens); 0 on a
  /// decoded ordering.
  uint64_t TotalFrequency() const { return total_frequency_; }

  /// Appends the ranks (not the frequencies) as a varint token count
  /// followed by the tokens in rank order, each as the zigzag varint of
  /// its difference from the previous one. Ties in frequency are broken by
  /// ascending token id, so the long tail of equal-frequency tokens codes
  /// as small positive steps — about one byte per token.
  void EncodeRanksTo(std::string* dst) const;

  /// Rebuilds an ordering from EncodeRanksTo bytes: RankOf/TokenAt are
  /// exact, frequencies are absent. Truncation, trailing bytes and
  /// sequences that are not a permutation of [0, n) are Corruption.
  static Result<GlobalOrder> DecodeRanks(std::string_view data);

 private:
  std::vector<TokenRank> rank_of_token_;
  std::vector<TokenId> token_at_rank_;
  std::vector<uint64_t> frequency_;
  uint64_t total_frequency_ = 0;
};

/// A record re-expressed in rank space: tokens replaced by their global
/// ranks and sorted ascending (rarest first), which is the representation
/// every filter-and-verification join operates on.
struct OrderedRecord {
  RecordId id = 0;
  std::vector<TokenRank> tokens;

  size_t Size() const { return tokens.size(); }
};

/// Applies the global ordering to every record of a corpus.
std::vector<OrderedRecord> ApplyGlobalOrder(const Corpus& corpus,
                                            const GlobalOrder& order);

}  // namespace fsjoin

#endif  // FSJOIN_SIM_GLOBAL_ORDER_H_
