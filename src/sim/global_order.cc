#include "sim/global_order.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/logging.h"
#include "util/serde.h"

namespace fsjoin {

GlobalOrder GlobalOrder::FromFrequencies(std::vector<uint64_t> frequency) {
  GlobalOrder order;
  order.frequency_ = std::move(frequency);
  const size_t n = order.frequency_.size();
  order.token_at_rank_.resize(n);
  std::iota(order.token_at_rank_.begin(), order.token_at_rank_.end(), 0);
  std::sort(order.token_at_rank_.begin(), order.token_at_rank_.end(),
            [&](TokenId a, TokenId b) {
              if (order.frequency_[a] != order.frequency_[b]) {
                return order.frequency_[a] < order.frequency_[b];
              }
              return a < b;
            });
  order.rank_of_token_.resize(n);
  for (size_t r = 0; r < n; ++r) {
    order.rank_of_token_[order.token_at_rank_[r]] = static_cast<TokenRank>(r);
  }
  order.total_frequency_ = 0;
  for (uint64_t f : order.frequency_) order.total_frequency_ += f;
  return order;
}

GlobalOrder GlobalOrder::FromCorpus(const Corpus& corpus) {
  std::vector<uint64_t> freq(corpus.dictionary.size());
  for (size_t t = 0; t < freq.size(); ++t) {
    freq[t] = corpus.dictionary.Frequency(static_cast<TokenId>(t));
  }
  return FromFrequencies(std::move(freq));
}

void GlobalOrder::EncodeRanksTo(std::string* dst) const {
  PutVarint64(dst, token_at_rank_.size());
  int64_t prev = 0;
  for (TokenId t : token_at_rank_) {
    PutZigzagVarint64(dst, static_cast<int64_t>(t) - prev);
    prev = static_cast<int64_t>(t);
  }
}

Result<GlobalOrder> GlobalOrder::DecodeRanks(std::string_view data) {
  Decoder dec(data);
  uint64_t n = 0;
  if (!dec.GetVarint64(&n).ok() || n > dec.remaining() ||
      n > std::numeric_limits<TokenRank>::max()) {
    // Every token takes at least one byte.
    return Status::Corruption("global order: truncated token count");
  }
  GlobalOrder order;
  order.token_at_rank_.resize(n);
  order.rank_of_token_.assign(n, static_cast<TokenRank>(n));
  int64_t prev = 0;
  for (uint64_t r = 0; r < n; ++r) {
    int64_t delta = 0;
    if (!dec.GetZigzagVarint64(&delta).ok()) {
      return Status::Corruption("global order: truncated rank list");
    }
    // |delta| <= n keeps prev + delta far from overflow.
    const int64_t bound = static_cast<int64_t>(n);
    if (delta > bound || delta < -bound) {
      return Status::Corruption("global order: ranks are not a permutation");
    }
    const int64_t token = prev + delta;
    if (token < 0 || static_cast<uint64_t>(token) >= n ||
        order.rank_of_token_[token] != n) {
      return Status::Corruption("global order: ranks are not a permutation");
    }
    order.token_at_rank_[r] = static_cast<TokenId>(token);
    order.rank_of_token_[token] = static_cast<TokenRank>(r);
    prev = token;
  }
  if (!dec.done()) {
    return Status::Corruption("global order: trailing bytes");
  }
  return order;
}

std::vector<OrderedRecord> ApplyGlobalOrder(const Corpus& corpus,
                                            const GlobalOrder& order) {
  std::vector<OrderedRecord> out;
  out.reserve(corpus.records.size());
  for (const Record& rec : corpus.records) {
    OrderedRecord ordered;
    ordered.id = rec.id;
    ordered.tokens.reserve(rec.tokens.size());
    for (TokenId t : rec.tokens) {
      FSJOIN_CHECK(t < order.NumTokens());
      ordered.tokens.push_back(order.RankOf(t));
    }
    std::sort(ordered.tokens.begin(), ordered.tokens.end());
    out.push_back(std::move(ordered));
  }
  return out;
}

}  // namespace fsjoin
