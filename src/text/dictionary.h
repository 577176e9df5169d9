#ifndef FSJOIN_TEXT_DICTIONARY_H_
#define FSJOIN_TEXT_DICTIONARY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "text/record.h"
#include "util/status.h"

namespace fsjoin {

/// Interns token strings to dense TokenIds and tracks per-token term
/// frequency (number of records containing the token — set semantics).
///
/// Storage is flat: the token strings live once, in id order, and the index
/// is an open-addressing (linear probing) table of ids over them; each
/// token's hash is stored once, by id. A lookup hashes the string_view it
/// is given, so it never builds a temporary std::string, and growing the
/// table re-places ids from the stored hashes without touching the strings.
/// Ids depend only on first-seen order, never on the hash.
class TokenDictionary {
 public:
  TokenDictionary() = default;

  /// Returns the id for `token`, interning it on first sight.
  TokenId Intern(std::string_view token);

  /// Looks up an existing token. NotFound if never interned.
  Result<TokenId> Lookup(std::string_view token) const;

  /// The token string for an id. Requires id < size().
  const std::string& TokenString(TokenId id) const;

  /// Increments the term frequency of `id` by `delta`.
  void AddFrequency(TokenId id, uint64_t delta);

  /// Term frequency of `id` (0 if never counted).
  uint64_t Frequency(TokenId id) const;

  /// Number of distinct tokens (the paper's token domain |U|).
  size_t size() const { return tokens_.size(); }

 private:
  static constexpr TokenId kEmptySlot = std::numeric_limits<TokenId>::max();

  /// Index into slots_ holding `token`'s id, or of the empty slot where it
  /// would go. Requires a non-empty table.
  size_t FindSlot(std::string_view token, uint64_t hash) const;

  /// Doubles the table (16 slots at first) and re-places every id.
  void Grow();

  std::vector<TokenId> slots_;       ///< power of two, at most half full
  std::vector<std::string> tokens_;  ///< by id
  std::vector<uint64_t> hashes_;     ///< by id: hash of tokens_[id]
  std::vector<uint64_t> frequency_;  ///< by id
};

}  // namespace fsjoin

#endif  // FSJOIN_TEXT_DICTIONARY_H_
