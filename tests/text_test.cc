// Unit tests for the text substrate: tokenizers, dictionary, corpus
// construction/validation/sampling, synthetic generators and IO.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "test_util.h"
#include "text/corpus.h"
#include "text/corpus_io.h"
#include "text/dictionary.h"
#include "text/generator.h"
#include "text/tokenizer.h"

namespace fsjoin {
namespace {

// ---- Tokenizers -----------------------------------------------------------

TEST(TokenizerTest, Whitespace) {
  WhitespaceTokenizer t;
  EXPECT_EQ(t.Tokenize("a  b\tc\n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("   ").empty());
  EXPECT_EQ(t.Tokenize("Keep.Case!"),
            (std::vector<std::string>{"Keep.Case!"}));
}

TEST(TokenizerTest, WordLowercasesAndSplitsPunctuation) {
  WordTokenizer t;
  EXPECT_EQ(t.Tokenize("Hello, World! x2"),
            (std::vector<std::string>{"hello", "world", "x2"}));
  EXPECT_TRUE(t.Tokenize("...!!!").empty());
}

TEST(TokenizerTest, QGrams) {
  QGramTokenizer t(3);
  auto grams = t.Tokenize("abcd");
  EXPECT_EQ(grams, (std::vector<std::string>{"abc", "bcd"}));
  // Shorter than q: padded single gram.
  EXPECT_EQ(t.Tokenize("ab"), (std::vector<std::string>{"ab$"}));
  // Whitespace normalized, case folded.
  auto norm = t.Tokenize("A  b");
  EXPECT_EQ(norm, (std::vector<std::string>{"a b"}));
  EXPECT_EQ(t.Name(), "3-gram");
}

// ---- Dictionary -----------------------------------------------------------

TEST(DictionaryTest, InternIsIdempotent) {
  TokenDictionary dict;
  TokenId a = dict.Intern("apple");
  TokenId b = dict.Intern("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("apple"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.TokenString(a), "apple");
}

TEST(DictionaryTest, LookupAndFrequency) {
  TokenDictionary dict;
  TokenId a = dict.Intern("x");
  EXPECT_TRUE(dict.Lookup("x").ok());
  EXPECT_FALSE(dict.Lookup("y").ok());
  EXPECT_EQ(dict.Frequency(a), 0u);
  dict.AddFrequency(a, 3);
  EXPECT_EQ(dict.Frequency(a), 3u);
  EXPECT_EQ(dict.Frequency(999), 0u);  // unknown id
}

TEST(DictionaryTest, IdsStayDenseInFirstSeenOrderPastManyGrowths) {
  // 150K distinct tokens force many table doublings; every id must still be
  // its token's first-seen position, and re-interning must find it.
  constexpr TokenId kTokens = 150000;
  TokenDictionary dict;
  for (TokenId i = 0; i < kTokens; ++i) {
    ASSERT_EQ(dict.Intern("tok" + std::to_string(i)), i);
    if (i % 7 == 0) {
      ASSERT_EQ(dict.Intern("tok" + std::to_string(i / 2)), i / 2);
    }
  }
  ASSERT_EQ(dict.size(), kTokens);
  for (TokenId i = 0; i < kTokens; ++i) {
    const std::string token = "tok" + std::to_string(i);
    ASSERT_EQ(dict.TokenString(i), token);
    Result<TokenId> found = dict.Lookup(token);
    ASSERT_TRUE(found.ok());
    ASSERT_EQ(*found, i);
  }
  EXPECT_EQ(dict.size(), kTokens);
}

TEST(DictionaryTest, LookupOfMissingTokenIsNotFound) {
  TokenDictionary empty;
  EXPECT_EQ(empty.Lookup("x").status().code(), StatusCode::kNotFound);
  TokenDictionary dict;
  for (int i = 0; i < 100; ++i) dict.Intern("t" + std::to_string(i));
  EXPECT_EQ(dict.Lookup("t100").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dict.Lookup("t").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dict.Lookup("").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(dict.size(), 100u);  // lookups never intern
}

TEST(DictionaryTest, EmptyStringIsAnOrdinaryToken) {
  TokenDictionary dict;
  const TokenId a = dict.Intern("a");
  const TokenId empty = dict.Intern("");
  EXPECT_NE(a, empty);
  EXPECT_EQ(dict.Intern(""), empty);
  EXPECT_EQ(dict.TokenString(empty), "");
  Result<TokenId> found = dict.Lookup("");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, empty);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, CopyInternsIndependentlyOfTheOriginal) {
  TokenDictionary original;
  for (int i = 0; i < 20; ++i) original.Intern("w" + std::to_string(i));
  original.AddFrequency(3, 5);
  TokenDictionary copy = original;
  // Enough new tokens to make the copy's table grow.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(copy.Intern("c" + std::to_string(i)),
              static_cast<TokenId>(20 + i));
  }
  copy.AddFrequency(3, 1);
  EXPECT_EQ(original.size(), 20u);
  EXPECT_FALSE(original.Lookup("c0").ok());
  EXPECT_EQ(original.Frequency(3), 5u);
  EXPECT_EQ(copy.Frequency(3), 6u);
  // Both still resolve the shared tokens; the original keeps interning on
  // its own id sequence.
  for (TokenId i = 0; i < 20; ++i) {
    const std::string token = "w" + std::to_string(i);
    EXPECT_EQ(*original.Lookup(token), i);
    EXPECT_EQ(*copy.Lookup(token), i);
  }
  EXPECT_EQ(original.Intern("o"), 20u);
  EXPECT_EQ(*copy.Lookup("c0"), 20u);
  EXPECT_FALSE(copy.Lookup("o").ok());
}

// ---- Corpus ---------------------------------------------------------------

TEST(CorpusTest, BuildDeduplicatesAndSorts) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"b a b a c", "c c"}, t);
  ASSERT_EQ(corpus.NumRecords(), 2u);
  EXPECT_EQ(corpus.records[0].tokens.size(), 3u);  // {a, b, c}
  EXPECT_EQ(corpus.records[1].tokens.size(), 1u);  // {c}
  EXPECT_TRUE(corpus.Validate().ok());
  // Term frequencies are per-record (set semantics).
  TokenId c = corpus.dictionary.Lookup("c").value();
  EXPECT_EQ(corpus.dictionary.Frequency(c), 2u);
}

TEST(CorpusTest, EmptyLinesYieldEmptyRecords) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"", "a"}, t);
  EXPECT_EQ(corpus.records[0].tokens.size(), 0u);
  EXPECT_TRUE(corpus.Validate().ok());
}

TEST(CorpusTest, ValidateCatchesCorruption) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"a b", "b c"}, t);
  corpus.records[1].id = 7;  // break dense ids
  EXPECT_FALSE(corpus.Validate().ok());
}

TEST(CorpusTest, SampleRenumbersAndRecounts) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"a b", "b c", "c d", "d e"}, t);
  Corpus sampled = SampleCorpus(corpus, {1, 3});
  ASSERT_EQ(sampled.NumRecords(), 2u);
  EXPECT_EQ(sampled.records[0].id, 0u);
  EXPECT_EQ(sampled.records[1].id, 1u);
  EXPECT_TRUE(sampled.Validate().ok());
  // 'b' survives once.
  EXPECT_EQ(
      sampled.dictionary.Frequency(sampled.dictionary.Lookup("b").value()),
      1u);
  EXPECT_FALSE(sampled.dictionary.Lookup("a").ok() &&
               sampled.dictionary.Frequency(
                   sampled.dictionary.Lookup("a").value()) > 1);
}

TEST(CorpusTest, StatsMatchDefinition) {
  WordTokenizer t;
  Corpus corpus = BuildCorpus({"a b c", "d", "e f"}, t);
  CorpusStats stats = ComputeStats(corpus);
  EXPECT_EQ(stats.num_records, 3u);
  EXPECT_EQ(stats.total_tokens, 6u);
  EXPECT_EQ(stats.min_len, 1u);
  EXPECT_EQ(stats.max_len, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_len, 2.0);
  EXPECT_EQ(stats.vocab_size, 6u);
}

// ---- Generator ------------------------------------------------------------

TEST(GeneratorTest, ZeroRecordsOrZeroVocabYieldsEmptyCorpus) {
  // Regression: these used to crash on an FSJOIN_CHECK instead of returning
  // an empty corpus. A zero-sized request is a valid (empty) corpus.
  SyntheticCorpusConfig zero_records;
  zero_records.num_records = 0;
  zero_records.vocab_size = 100;
  Corpus a = GenerateCorpus(zero_records);
  EXPECT_EQ(a.NumRecords(), 0u);
  EXPECT_TRUE(a.Validate().ok());

  SyntheticCorpusConfig zero_vocab;
  zero_vocab.num_records = 10;
  zero_vocab.vocab_size = 0;
  Corpus b = GenerateCorpus(zero_vocab);
  EXPECT_EQ(b.NumRecords(), 0u);
  EXPECT_TRUE(b.Validate().ok());

  SyntheticCorpusConfig both_zero;
  both_zero.num_records = 0;
  both_zero.vocab_size = 0;
  EXPECT_EQ(GenerateCorpus(both_zero).NumRecords(), 0u);
}

TEST(GeneratorTest, DeterministicForSeed) {
  SyntheticCorpusConfig cfg;
  cfg.num_records = 200;
  cfg.vocab_size = 500;
  cfg.seed = 13;
  Corpus a = GenerateCorpus(cfg);
  Corpus b = GenerateCorpus(cfg);
  ASSERT_EQ(a.NumRecords(), b.NumRecords());
  for (size_t i = 0; i < a.NumRecords(); ++i) {
    EXPECT_EQ(a.records[i].tokens, b.records[i].tokens);
  }
}

TEST(GeneratorTest, RespectsInvariantsAndBounds) {
  SyntheticCorpusConfig cfg;
  cfg.num_records = 300;
  cfg.vocab_size = 400;
  cfg.min_len = 2;
  cfg.max_len = 40;
  cfg.avg_len = 10;
  cfg.near_duplicate_fraction = 0.0;  // pure records obey min/max exactly
  Corpus corpus = GenerateCorpus(cfg);
  EXPECT_TRUE(corpus.Validate().ok());
  for (const Record& r : corpus.records) {
    EXPECT_GE(r.tokens.size(), cfg.min_len);
    EXPECT_LE(r.tokens.size(), cfg.max_len);
  }
}

TEST(GeneratorTest, PlantsNearDuplicates) {
  Corpus corpus = fsjoin::testing::RandomCorpus(300, 400, 1.0, 12, 31);
  // With 35% near-duplicates at 12% mutation there must be highly similar
  // pairs; check at least one pair shares >= 80% of tokens.
  auto ordered = fsjoin::testing::OrderedView(corpus);
  bool found = false;
  for (size_t i = 0; i < ordered.size() && !found; ++i) {
    for (size_t j = i + 1; j < ordered.size() && !found; ++j) {
      size_t common = 0;
      size_t x = 0, y = 0;
      while (x < ordered[i].tokens.size() && y < ordered[j].tokens.size()) {
        if (ordered[i].tokens[x] == ordered[j].tokens[y]) {
          ++common;
          ++x;
          ++y;
        } else if (ordered[i].tokens[x] < ordered[j].tokens[y]) {
          ++x;
        } else {
          ++y;
        }
      }
      size_t uni =
          ordered[i].tokens.size() + ordered[j].tokens.size() - common;
      if (uni > 0 && static_cast<double>(common) / uni >= 0.8) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GeneratorTest, PresetsHaveDistinctShapes) {
  Corpus email = GenerateCorpus(EmailLikeConfig(0.05));
  Corpus wiki = GenerateCorpus(WikiLikeConfig(0.05));
  CorpusStats es = ComputeStats(email);
  CorpusStats ws = ComputeStats(wiki);
  // Email-like: few long records. Wiki-like: many short ones.
  EXPECT_LT(es.num_records, ws.num_records);
  EXPECT_GT(es.avg_len, 3 * ws.avg_len);
}

// ---- IO ---------------------------------------------------------------------

TEST(CorpusIoTest, RoundTripsThroughText) {
  Corpus corpus = fsjoin::testing::RandomCorpus(50, 80, 1.0, 6, 41);
  std::string path =
      (std::filesystem::temp_directory_path() / "fsjoin_io_test.txt").string();
  ASSERT_TRUE(WriteCorpusText(corpus, path).ok());
  Result<Corpus> read = ReadCorpusText(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->NumRecords(), corpus.NumRecords());
  for (size_t i = 0; i < corpus.NumRecords(); ++i) {
    // Token *sets* must match (ids may be renumbered).
    std::set<std::string> before, after;
    for (TokenId t : corpus.records[i].tokens) {
      before.insert(corpus.dictionary.TokenString(t));
    }
    for (TokenId t : read->records[i].tokens) {
      after.insert(read->dictionary.TokenString(t));
    }
    EXPECT_EQ(before, after);
  }
  std::remove(path.c_str());
}

TEST(CorpusIoTest, MissingFileIsIoError) {
  Result<Corpus> r = ReadCorpusText("/nonexistent/path/xyz.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// ---- Round-trip property ---------------------------------------------------

// tokenizer -> dictionary -> global order is lossless: ranks map back to
// the exact per-record token sets, and token multiplicity (how many records
// contain each token) is preserved by the ordering — 100 seeded iterations
// over random corpora with duplicate tokens inside lines.
TEST(RoundTripProperty, TokenizeDictionaryGlobalOrderPreservesMultiplicity) {
  WhitespaceTokenizer tokenizer;
  for (uint64_t iter = 0; iter < 100; ++iter) {
    Rng rng(1000 + iter);
    const size_t num_records = 1 + rng.NextBounded(20);
    const uint32_t vocab = 1 + static_cast<uint32_t>(rng.NextBounded(30));
    std::vector<std::string> lines;
    std::vector<std::set<std::string>> expected_sets;
    for (size_t r = 0; r < num_records; ++r) {
      const size_t len = rng.NextBounded(12);  // may be 0: empty record
      std::string line;
      std::set<std::string> expected;
      for (size_t k = 0; k < len; ++k) {
        // Duplicates within a line are likely and must collapse.
        std::string word = "w" + std::to_string(rng.NextBounded(vocab));
        expected.insert(word);
        if (!line.empty()) line += ' ';
        line += word;
      }
      lines.push_back(line);
      expected_sets.push_back(std::move(expected));
    }

    Corpus corpus = BuildCorpus(lines, tokenizer);
    ASSERT_TRUE(corpus.Validate().ok()) << "iter " << iter;
    ASSERT_EQ(corpus.NumRecords(), num_records);

    // Dictionary multiplicity: frequency of each token == number of
    // records whose set contains it.
    std::map<std::string, uint64_t> expected_freq;
    for (const auto& set : expected_sets) {
      for (const std::string& word : set) ++expected_freq[word];
    }
    uint64_t expected_total = 0;
    for (const auto& [word, f] : expected_freq) {
      auto id = corpus.dictionary.Lookup(word);
      ASSERT_TRUE(id.ok()) << "iter " << iter << " lost token " << word;
      EXPECT_EQ(corpus.dictionary.Frequency(*id), f)
          << "iter " << iter << " token " << word;
      expected_total += f;
    }

    // Global order is a bijection on the token domain; mapping ranks back
    // through TokenAt recovers each record's exact token set, and the
    // summed per-rank frequency equals the corpus's total multiplicity.
    GlobalOrder order = GlobalOrder::FromCorpus(corpus);
    ASSERT_EQ(order.NumTokens(), corpus.dictionary.size());
    std::vector<OrderedRecord> ordered = ApplyGlobalOrder(corpus, order);
    ASSERT_EQ(ordered.size(), num_records);
    for (size_t r = 0; r < num_records; ++r) {
      EXPECT_EQ(ordered[r].tokens.size(), expected_sets[r].size());
      std::set<std::string> recovered;
      for (TokenRank rank : ordered[r].tokens) {
        recovered.insert(
            corpus.dictionary.TokenString(order.TokenAt(rank)));
      }
      EXPECT_EQ(recovered, expected_sets[r]) << "iter " << iter
                                             << " record " << r;
    }
    uint64_t rank_total = 0;
    for (TokenRank rank = 0; rank < order.NumTokens(); ++rank) {
      rank_total += order.FrequencyAt(rank);
      if (rank > 0) {
        EXPECT_GE(order.FrequencyAt(rank), order.FrequencyAt(rank - 1))
            << "global order not ascending in frequency at rank " << rank;
      }
    }
    EXPECT_EQ(rank_total, expected_total) << "iter " << iter;
    EXPECT_EQ(rank_total, corpus.TotalTokens()) << "iter " << iter;
  }
}

}  // namespace
}  // namespace fsjoin
