#include "text/dictionary.h"

#include <functional>

#include "util/logging.h"

namespace fsjoin {

namespace {

uint64_t HashToken(std::string_view token) {
  return std::hash<std::string_view>{}(token);
}

}  // namespace

size_t TokenDictionary::FindSlot(std::string_view token, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const TokenId id = slots_[i];
    if (id == kEmptySlot ||
        (hashes_[id] == hash && tokens_[id] == token)) {
      return i;
    }
  }
}

void TokenDictionary::Grow() {
  slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, kEmptySlot);
  const size_t mask = slots_.size() - 1;
  for (TokenId id = 0; id < static_cast<TokenId>(tokens_.size()); ++id) {
    size_t i = hashes_[id] & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

TokenId TokenDictionary::Intern(std::string_view token) {
  if ((tokens_.size() + 1) * 2 > slots_.size()) Grow();
  const uint64_t hash = HashToken(token);
  TokenId& slot = slots_[FindSlot(token, hash)];
  if (slot != kEmptySlot) return slot;
  slot = static_cast<TokenId>(tokens_.size());
  tokens_.emplace_back(token);
  hashes_.push_back(hash);
  frequency_.push_back(0);
  return slot;
}

Result<TokenId> TokenDictionary::Lookup(std::string_view token) const {
  const TokenId id =
      slots_.empty() ? kEmptySlot : slots_[FindSlot(token, HashToken(token))];
  if (id == kEmptySlot) {
    return Status::NotFound("token not in dictionary: " + std::string(token));
  }
  return id;
}

const std::string& TokenDictionary::TokenString(TokenId id) const {
  FSJOIN_CHECK(id < tokens_.size());
  return tokens_[id];
}

void TokenDictionary::AddFrequency(TokenId id, uint64_t delta) {
  FSJOIN_CHECK(id < frequency_.size());
  frequency_[id] += delta;
}

uint64_t TokenDictionary::Frequency(TokenId id) const {
  if (id >= frequency_.size()) return 0;
  return frequency_[id];
}

}  // namespace fsjoin
