// Differential-fuzz campaign for the query-specialized hit-detection
// kernels (hit_scan_prefilter / hit_scan_collect): every vector path must
// match the engines' classic per-entry two-hit automaton exactly — the
// same paired records in the same order, the same pair count, and the same
// raw last-hit array contents after every scan — across randomized posting
// scans spanning the fragile regimes: fragment/query length classes,
// word-frequency skew (posting lists far longer than one kernel chunk),
// sub-lane tails, repeated scans of one diagonal range, multiple
// new_round epochs, and two-hit threshold edges (window at/under the
// overlap bound, delta exactly at each boundary). Plus engine-level tests
// proving both engines produce bit-identical results and counters with the
// flattened-lookup path on, and that the hit_kernel telemetry is booked.
//
// Vector paths only run where the CPU supports them; the fuzz suite keeps
// the scalar-dispatch coverage on a host without AVX2, and the tests that
// exercise only the vector kernels skip there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/interleaved_engine.hpp"
#include "common/rng.hpp"
#include "core/hit_record.hpp"
#include "core/mublastp_engine.hpp"
#include "core/two_hit.hpp"
#include "index/db_index.hpp"
#include "index/flat_lookup.hpp"
#include "kernel_paths.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"
#include "synth/synth.hpp"

namespace mublastp {
namespace {

// The fuzz tests run scalar dispatch alongside the vector paths
// (all_kernels()): it must agree with the reference too (it shares no code
// with the classic loop's DiagState accessors).

// The engines' original per-entry automaton (mublastp_engine.cpp's classic
// prefilter branch), replicated through the DiagState public API only — an
// independent oracle for the raw-representation kernels.
std::size_t ref_prefilter(const simd::HitScan& scan, DiagState& state,
                          std::int32_t min, std::int32_t window,
                          std::vector<HitRecord>& out) {
  const std::uint32_t mask = (1u << scan.offset_bits) - 1u;
  const std::int32_t q = static_cast<std::int32_t>(scan.qoff);
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < scan.count; ++i) {
    const std::uint32_t e = scan.entries[i];
    const std::uint32_t key =
        scan.bases[e >> scan.offset_bits] + (e & mask) + scan.key_add;
    const std::int32_t last = state.last_hit(key);
    if (last != DiagState::kNone && q - last < min) continue;  // overlap
    const bool paired = last != DiagState::kNone && q - last < window;
    state.set_last_hit(key, q);
    if (!paired) continue;
    out.push_back({key, scan.qoff});
    ++cnt;
  }
  return cnt;
}

void ref_collect(const simd::HitScan& scan, std::vector<HitRecord>& out) {
  const std::uint32_t mask = (1u << scan.offset_bits) - 1u;
  for (std::size_t i = 0; i < scan.count; ++i) {
    const std::uint32_t e = scan.entries[i];
    out.push_back({scan.bases[e >> scan.offset_bits] + (e & mask) +
                       scan.key_add,
                   scan.qoff});
  }
}

// One synthetic block layout + posting lists, honoring the HitScan
// precondition: entries ascending by (fragment, offset) and distinct, with
// per-fragment key bases spaced len + qlen + 1 apart — so within any scan
// the decoded keys are strictly ascending and distinct.
struct ScanCase {
  std::vector<std::uint32_t> bases;  ///< nfrags + 1 prefix sums
  std::uint32_t offset_bits = 0;
  std::uint32_t qlen = 0;
  std::int32_t min = 0;
  std::int32_t window = 0;
  std::vector<std::vector<std::uint32_t>> lists;  ///< sorted packed entries
};

ScanCase make_case(Rng& rng) {
  ScanCase c;
  // Query length classes: word-length edge, short, medium, long.
  switch (rng.next_below(4)) {
    case 0: c.qlen = 3; break;
    case 1: c.qlen = 4 + static_cast<std::uint32_t>(rng.next_below(5)); break;
    case 2: c.qlen = 64; break;
    default:
      c.qlen = 180 + static_cast<std::uint32_t>(rng.next_below(80));
      break;
  }
  // Two-hit thresholds, including the edges: window == min (pairing
  // impossible — every in-window delta is an overlap), window == min + 1
  // (delta exactly min is the only pairing distance), the production
  // W=3/A=40 pair, and a window wider than any fragment.
  static constexpr std::int32_t kMins[] = {1, 2, 3, 5};
  c.min = kMins[rng.next_below(4)];
  switch (rng.next_below(4)) {
    case 0: c.window = c.min; break;
    case 1: c.window = c.min + 1; break;
    case 2: c.window = 40; break;
    default: c.window = 1000; break;
  }

  // Fragment length classes: tiny (single-position), overlap-window sized,
  // long (many diagonals).
  const std::size_t nfrags = 1 + rng.next_below(6);
  std::vector<std::uint32_t> lens;
  std::uint32_t maxlen = 1;
  for (std::size_t f = 0; f < nfrags; ++f) {
    std::uint32_t len = 0;
    switch (rng.next_below(3)) {
      case 0: len = 1 + static_cast<std::uint32_t>(rng.next_below(4)); break;
      case 1: len = 5 + static_cast<std::uint32_t>(rng.next_below(36)); break;
      default:
        len = 150 + static_cast<std::uint32_t>(rng.next_below(250));
        break;
    }
    lens.push_back(len);
    maxlen = std::max(maxlen, len);
  }
  c.offset_bits = 1;
  while ((1u << c.offset_bits) < maxlen) ++c.offset_bits;
  c.bases.assign(1, 0);
  for (const std::uint32_t len : lens) {
    c.bases.push_back(c.bases.back() + len + c.qlen + 1);
  }

  // Every (fragment, offset) position, packed. Posting lists sample from
  // this universe with skewed sizes: empty, a handful, chunk-straddling,
  // and word-frequency-skew lists several kernel chunks long.
  std::vector<std::uint32_t> universe;
  for (std::size_t f = 0; f < nfrags; ++f) {
    for (std::uint32_t s = 0; s < lens[f]; ++s) {
      universe.push_back((static_cast<std::uint32_t>(f) << c.offset_bits) |
                         s);
    }
  }
  const std::size_t nlists = 1 + rng.next_below(5);
  for (std::size_t l = 0; l < nlists; ++l) {
    std::size_t want = 0;
    switch (rng.next_below(5)) {
      case 0: want = 0; break;
      case 1: want = 1 + rng.next_below(6); break;
      case 2: want = 100 + rng.next_below(60); break;  // straddles 128
      case 3: want = 250 + rng.next_below(300); break;
      default: want = universe.size(); break;
    }
    want = std::min(want, universe.size());
    // Partial Fisher-Yates: the first `want` slots become a uniform sample.
    std::vector<std::uint32_t> pool = universe;
    for (std::size_t i = 0; i < want; ++i) {
      const std::size_t j = i + rng.next_below(pool.size() - i);
      std::swap(pool[i], pool[j]);
    }
    pool.resize(want);
    std::sort(pool.begin(), pool.end());
    c.lists.push_back(std::move(pool));
  }
  return c;
}

// ---- Kernel-level differential fuzz ---------------------------------------

// >= 10k posting-list scans per dispatched path, each checked against the
// classic automaton for the emitted record stream, the pair count, and the
// full raw last-hit array at every round boundary.
TEST(HitSimdFuzz, PrefilterMatchesClassicAutomaton) {
  const std::vector<simd::KernelPath> paths = all_kernels();
  Rng rng(0x81757e57u);
  std::size_t scans = 0;
  std::vector<HitRecord> ref_out;
  std::vector<HitRecord> got(4096);

  while (scans < 12000) {
    const ScanCase c = make_case(rng);
    DiagState ref_state;
    ref_state.resize(c.bases.back());
    std::vector<DiagState> ker_state(paths.size());
    for (DiagState& s : ker_state) s.resize(c.bases.back());

    const std::uint32_t npos = c.qlen - kWordLength + 1;
    for (int round = 0; round < 3; ++round) {
      ref_state.new_round(static_cast<std::int32_t>(c.qlen) + 1);
      for (DiagState& s : ker_state) {
        s.new_round(static_cast<std::int32_t>(c.qlen) + 1);
      }
      for (std::uint32_t qoff = 0; qoff < npos; ++qoff) {
        // One or two lists per position; repeats of the same list at
        // successive qoffs exercise the dense per-diagonal automaton.
        const std::size_t nscans = 1 + rng.next_below(2);
        for (std::size_t s = 0; s < nscans; ++s) {
          const auto& list = c.lists[rng.next_below(c.lists.size())];
          const simd::HitScan scan{list.data(), list.size(), c.bases.data(),
                                   c.offset_bits, qoff, c.qlen - qoff};
          ref_out.clear();
          const std::size_t ref_cnt =
              ref_prefilter(scan, ref_state, c.min, c.window, ref_out);
          if (got.size() < list.size()) got.resize(list.size());
          for (std::size_t p = 0; p < paths.size(); ++p) {
            const simd::HitScanFilter filter{ker_state[p].raw_last(),
                                             ker_state[p].base(), c.min,
                                             c.window};
            const std::size_t cnt = simd::hit_scan_prefilter(
                paths[p], scan, filter, got.data());
            ASSERT_EQ(cnt, ref_cnt)
                << simd::kernel_name(paths[p]) << " scan " << scans;
            for (std::size_t i = 0; i < cnt; ++i) {
              ASSERT_EQ(got[i].key, ref_out[i].key)
                  << simd::kernel_name(paths[p]) << " scan " << scans
                  << " rec " << i;
              ASSERT_EQ(got[i].qoff, ref_out[i].qoff)
                  << simd::kernel_name(paths[p]) << " scan " << scans
                  << " rec " << i;
            }
          }
          ++scans;
        }
      }
      // The automaton's state must agree in its raw epoch-stamped
      // representation, not just through the accessor — the kernels write
      // the array directly.
      for (std::size_t p = 0; p < paths.size(); ++p) {
        ASSERT_TRUE(std::equal(ref_state.raw_last(),
                               ref_state.raw_last() + c.bases.back(),
                               ker_state[p].raw_last()))
            << simd::kernel_name(paths[p]) << " round " << round
            << " after " << scans << " scans";
        ASSERT_EQ(ref_state.base(), ker_state[p].base());
      }
    }
  }
  ASSERT_GE(scans, 10000u);
}

// The engines fuse all of one query position's posting lists into a single
// scan: keys stay pairwise distinct (disjoint (fragment, offset) sets per
// word) but are NOT ascending across list boundaries. The kernels only
// need distinctness — prove it on scans built exactly that way: a disjoint
// partition of the position universe, concatenated in random order.
TEST(HitSimdFuzz, FusedScanMatchesClassicAutomaton) {
  const std::vector<simd::KernelPath> paths = all_kernels();
  Rng rng(0xf05edu);
  std::size_t scans = 0;
  std::vector<HitRecord> ref_out;
  std::vector<HitRecord> got;
  std::vector<std::uint32_t> fused;

  while (scans < 3000) {
    const ScanCase c = make_case(rng);
    // Partition every (fragment, offset) into disjoint "words": shuffle the
    // universe, deal it into 1..8 sorted lists.
    std::vector<std::uint32_t> universe;
    const std::size_t nfrags = c.bases.size() - 1;
    for (std::size_t f = 0; f < nfrags; ++f) {
      const std::uint32_t len =
          c.bases[f + 1] - c.bases[f] - c.qlen - 1;
      for (std::uint32_t s = 0; s < len; ++s) {
        universe.push_back((static_cast<std::uint32_t>(f) << c.offset_bits) |
                           s);
      }
    }
    for (std::size_t i = 0; i + 1 < universe.size(); ++i) {
      const std::size_t j = i + rng.next_below(universe.size() - i);
      std::swap(universe[i], universe[j]);
    }
    const std::size_t nwords = 1 + rng.next_below(8);
    std::vector<std::vector<std::uint32_t>> words(nwords);
    for (std::size_t i = 0; i < universe.size(); ++i) {
      words[i % nwords].push_back(universe[i]);
    }
    for (auto& w : words) std::sort(w.begin(), w.end());

    DiagState ref_state;
    ref_state.resize(c.bases.back());
    std::vector<DiagState> ker_state(paths.size());
    for (DiagState& s : ker_state) s.resize(c.bases.back());
    ref_state.new_round(static_cast<std::int32_t>(c.qlen) + 1);
    for (DiagState& s : ker_state) {
      s.new_round(static_cast<std::int32_t>(c.qlen) + 1);
    }

    const std::uint32_t npos = c.qlen - kWordLength + 1;
    for (std::uint32_t qoff = 0; qoff < npos && scans < 3000; ++qoff) {
      // Concatenate a random subset of the disjoint lists in random order
      // — the fused-scan shape, complete with unordered list boundaries.
      fused.clear();
      for (std::size_t w = 0; w < nwords; ++w) {
        if (rng.next_below(3) == 0) continue;
        const auto& list = words[(w + rng.next_below(nwords)) % nwords];
        fused.insert(fused.end(), list.begin(), list.end());
      }
      // Dedup across the picks so the distinctness precondition holds.
      std::vector<std::uint32_t> seen(fused);
      std::sort(seen.begin(), seen.end());
      if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
        continue;
      }
      if (fused.empty()) continue;
      const simd::HitScan scan{fused.data(), fused.size(), c.bases.data(),
                               c.offset_bits, qoff, c.qlen - qoff};
      ref_out.clear();
      const std::size_t ref_cnt =
          ref_prefilter(scan, ref_state, c.min, c.window, ref_out);
      if (got.size() < fused.size()) got.resize(fused.size());
      for (std::size_t p = 0; p < paths.size(); ++p) {
        const simd::HitScanFilter filter{ker_state[p].raw_last(),
                                         ker_state[p].base(), c.min,
                                         c.window};
        const std::size_t cnt =
            simd::hit_scan_prefilter(paths[p], scan, filter, got.data());
        ASSERT_EQ(cnt, ref_cnt)
            << simd::kernel_name(paths[p]) << " scan " << scans;
        for (std::size_t i = 0; i < cnt; ++i) {
          ASSERT_EQ(got[i].key, ref_out[i].key)
              << simd::kernel_name(paths[p]) << " scan " << scans;
          ASSERT_EQ(got[i].qoff, ref_out[i].qoff)
              << simd::kernel_name(paths[p]) << " scan " << scans;
        }
        ASSERT_TRUE(std::equal(ref_state.raw_last(),
                               ref_state.raw_last() + c.bases.back(),
                               ker_state[p].raw_last()))
            << simd::kernel_name(paths[p]) << " scan " << scans;
      }
      ++scans;
    }
  }
}

TEST(HitSimdFuzz, CollectMatchesScalarDecode) {
  const std::vector<simd::KernelPath> paths = all_kernels();
  Rng rng(0xc011ec7u);
  std::size_t scans = 0;
  std::vector<HitRecord> ref_out;
  std::vector<HitRecord> got(4096);

  while (scans < 2000) {
    const ScanCase c = make_case(rng);
    const std::uint32_t npos = c.qlen - kWordLength + 1;
    for (std::uint32_t qoff = 0; qoff < npos; qoff += 1 + rng.next_below(8)) {
      const auto& list = c.lists[rng.next_below(c.lists.size())];
      const simd::HitScan scan{list.data(), list.size(), c.bases.data(),
                               c.offset_bits, qoff, c.qlen - qoff};
      ref_out.clear();
      ref_collect(scan, ref_out);
      if (got.size() < list.size()) got.resize(list.size());
      for (const simd::KernelPath path : paths) {
        const std::size_t cnt = simd::hit_scan_collect(path, scan, got.data());
        ASSERT_EQ(cnt, list.size()) << simd::kernel_name(path);
        for (std::size_t i = 0; i < cnt; ++i) {
          ASSERT_EQ(got[i].key, ref_out[i].key)
              << simd::kernel_name(path) << " scan " << scans << " rec " << i;
          ASSERT_EQ(got[i].qoff, ref_out[i].qoff)
              << simd::kernel_name(path) << " scan " << scans << " rec " << i;
        }
      }
      ++scans;
    }
  }
}

// Tallies: vector paths split scans into full tiles + a scalar tail; the
// scalar dispatch books everything as tail. Telemetry only — but it must
// account for every entry it claims to.
TEST(HitSimdFuzz, TalliesAccountForEveryEntry) {
  Rng rng(0x7a111e5u);
  ScanCase c;
  do {
    c = make_case(rng);
  } while (c.lists.empty() || c.lists[0].size() < 300);
  const auto& list = c.lists[0];
  const simd::HitScan scan{list.data(), list.size(), c.bases.data(),
                           c.offset_bits, 0, c.qlen};
  std::vector<HitRecord> got(list.size());

  simd::HitScanTallies scalar_tallies;
  DiagState s0;
  s0.resize(c.bases.back());
  s0.new_round(static_cast<std::int32_t>(c.qlen) + 1);
  simd::hit_scan_prefilter(
      simd::KernelPath::kScalar, scan,
      {s0.raw_last(), s0.base(), c.min, c.window}, got.data(),
      &scalar_tallies);
  EXPECT_EQ(scalar_tallies.tiles, 0u);
  EXPECT_EQ(scalar_tallies.tail_entries, list.size());
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";

  for (const simd::KernelPath path : vector_kernels()) {
    // The AVX2 prefilter mixes 8-lane tiles with 4-lane sub-tiles, so the
    // per-tile width is a range, not a constant: every entry is either in
    // a tile of 4..8 lanes or in the scalar tail.
    constexpr std::size_t max_lanes = 8;
    simd::HitScanTallies t;
    DiagState st;
    st.resize(c.bases.back());
    st.new_round(static_cast<std::int32_t>(c.qlen) + 1);
    simd::hit_scan_prefilter(path, scan,
                             {st.raw_last(), st.base(), c.min, c.window},
                             got.data(), &t);
    EXPECT_GT(t.tiles, 0u) << simd::kernel_name(path);
    EXPECT_GE(t.tiles * max_lanes + t.tail_entries, list.size())
        << simd::kernel_name(path);
    EXPECT_LE(t.tiles * 4 + t.tail_entries, list.size())
        << simd::kernel_name(path);

    simd::HitScanTallies tc;
    simd::hit_scan_collect(path, scan, got.data(), &tc);
    EXPECT_GT(tc.tiles, 0u) << simd::kernel_name(path);
    EXPECT_EQ(tc.tiles * max_lanes + tc.tail_entries, list.size())
        << simd::kernel_name(path);
  }
}

// ---- FlatNeighborhood ------------------------------------------------------

// The flattened table must visit exactly the posting lists the classic
// two-level scan visits, in the same order.
TEST(FlatNeighborhood, MatchesTwoLevelScanOrder)
{
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(60000), 808);
  Rng rng(809);
  const SequenceStore queries = synth::sample_queries(db, 3, 96, rng);
  const DbIndexConfig config;
  const NeighborTable neighbors(*config.matrix, config.neighbor_threshold);

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto query = queries.sequence(static_cast<SeqId>(qi));
    FlatNeighborhood flat;
    flat.build(query, neighbors);
    ASSERT_TRUE(flat.built_for(query, neighbors));
    ASSERT_EQ(flat.positions(), query.size() - kWordLength + 1);
    std::size_t total = 0;
    for (std::uint32_t qoff = 0; qoff + kWordLength <= query.size();
         ++qoff) {
      const auto nbs = neighbors.neighbors(word_key(query.data() + qoff));
      const auto words = flat.words(qoff);
      ASSERT_EQ(words.size(), nbs.size()) << "qoff " << qoff;
      for (std::size_t i = 0; i < nbs.size(); ++i) {
        ASSERT_EQ(words[i], nbs[i]) << "qoff " << qoff << " word " << i;
      }
      total += nbs.size();
    }
    ASSERT_EQ(flat.total_words(), total);
  }
}

TEST(FlatNeighborhood, ShortQueryHasNoPositions) {
  const DbIndexConfig config;
  const NeighborTable neighbors(*config.matrix, config.neighbor_threshold);
  const std::vector<Residue> tiny(kWordLength - 1, Residue{3});
  FlatNeighborhood flat;
  flat.build({tiny.data(), tiny.size()}, neighbors);
  EXPECT_EQ(flat.positions(), 0u);
  EXPECT_EQ(flat.total_words(), 0u);
}

// ---- Engine-level equivalence ---------------------------------------------

// A workload with deliberate word-frequency skew: the low-complexity
// subjects blow single posting lists far past one kernel chunk, and the
// matching low-complexity query scans them at every position.
struct SkewWorkload {
  SequenceStore db;
  std::vector<std::vector<Residue>> queries;
};

SkewWorkload make_skew_workload() {
  SkewWorkload w;
  w.db = synth::generate_database(synth::sprot_like(120000), 515);
  Rng rng(0x5e3d);
  // Low-complexity subjects: 3-letter alphabet, 400 residues each — every
  // word is one of 27, so its posting list holds hundreds of entries.
  for (int s = 0; s < 6; ++s) {
    std::vector<Residue> seq(400);
    for (auto& r : seq) r = static_cast<Residue>(rng.next_below(3));
    w.db.add({seq.data(), seq.size()});
  }
  // Queries per length class: normal sampled, short (barely above word
  // length), and a low-complexity one hitting the skewed lists.
  const SequenceStore sampled = synth::sample_queries(w.db, 2, 128, rng);
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    const auto q = sampled.sequence(static_cast<SeqId>(i));
    w.queries.emplace_back(q.begin(), q.end());
  }
  std::vector<Residue> tiny(6);
  for (auto& r : tiny) r = static_cast<Residue>(rng.next_below(20));
  w.queries.push_back(tiny);
  std::vector<Residue> low(160);
  for (auto& r : low) r = static_cast<Residue>(rng.next_below(3));
  w.queries.push_back(low);
  return w;
}

void expect_same_result(const QueryResult& ref, const QueryResult& got,
                        const std::string& label) {
  ASSERT_EQ(got.ungapped.size(), ref.ungapped.size()) << label;
  for (std::size_t i = 0; i < ref.ungapped.size(); ++i) {
    ASSERT_EQ(got.ungapped[i], ref.ungapped[i]) << label << " seg " << i;
  }
  ASSERT_EQ(got.alignments.size(), ref.alignments.size()) << label;
  for (std::size_t i = 0; i < ref.alignments.size(); ++i) {
    const GappedAlignment& x = ref.alignments[i];
    const GappedAlignment& y = got.alignments[i];
    ASSERT_EQ(y.subject, x.subject) << label << " aln " << i;
    ASSERT_EQ(y.score, x.score) << label << " aln " << i;
    ASSERT_EQ(y.q_start, x.q_start) << label << " aln " << i;
    ASSERT_EQ(y.q_end, x.q_end) << label << " aln " << i;
    ASSERT_EQ(y.s_start, x.s_start) << label << " aln " << i;
    ASSERT_EQ(y.s_end, x.s_end) << label << " aln " << i;
    ASSERT_EQ(y.ops, x.ops) << label << " aln " << i;
  }
  // The deterministic counters — hits, pairs, records through the sort,
  // extensions, alignments — must be equal, not merely the outputs.
  EXPECT_EQ(got.stats.hits, ref.stats.hits) << label;
  EXPECT_EQ(got.stats.hit_pairs, ref.stats.hit_pairs) << label;
  EXPECT_EQ(got.stats.sorted_records, ref.stats.sorted_records) << label;
  EXPECT_EQ(got.stats.extensions, ref.stats.extensions) << label;
  EXPECT_EQ(got.stats.ungapped_alignments, ref.stats.ungapped_alignments)
      << label;
  EXPECT_EQ(got.stats.gapped_extensions, ref.stats.gapped_extensions)
      << label;
}

TEST(HitSimdEngine, MuBlastpBitIdenticalAcrossKernels) {
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";
  const SkewWorkload w = make_skew_workload();
  const DbIndex index = DbIndex::build(w.db, {});

  for (const bool prefilter : {true, false}) {
    MuBlastpOptions scalar_opts;
    scalar_opts.prefilter = prefilter;
    scalar_opts.kernel = simd::KernelPath::kScalar;
    const MuBlastpEngine scalar_engine(index, {}, scalar_opts);

    for (const simd::KernelPath path : vector_kernels()) {
      MuBlastpOptions opts;
      opts.prefilter = prefilter;
      opts.kernel = path;
      const MuBlastpEngine engine(index, {}, opts);
      for (std::size_t qi = 0; qi < w.queries.size(); ++qi) {
        const auto& q = w.queries[qi];
        const QueryResult ref =
            scalar_engine.search({q.data(), q.size()});
        const QueryResult got = engine.search({q.data(), q.size()});
        expect_same_result(
            ref, got,
            std::string(simd::kernel_name(path)) +
                (prefilter ? "/prefilter" : "/alg1") + " query " +
                std::to_string(qi));
      }
    }
  }
}

TEST(HitSimdEngine, InterleavedBitIdenticalAcrossKernels) {
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";
  const SkewWorkload w = make_skew_workload();
  const DbIndex index = DbIndex::build(w.db, {});
  const InterleavedDbEngine scalar_engine(index, {},
                                          simd::KernelPath::kScalar);
  for (const simd::KernelPath path : vector_kernels()) {
    const InterleavedDbEngine engine(index, {}, path);
    for (std::size_t qi = 0; qi < w.queries.size(); ++qi) {
      const auto& q = w.queries[qi];
      const QueryResult ref = scalar_engine.search({q.data(), q.size()});
      const QueryResult got = engine.search({q.data(), q.size()});
      expect_same_result(ref, got,
                         std::string(simd::kernel_name(path)) + " query " +
                             std::to_string(qi));
    }
  }
}

TEST(HitSimdEngine, BatchBitIdenticalAcrossKernels) {
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";
  const SequenceStore db =
      synth::generate_database(synth::sprot_like(100000), 515);
  Rng rng(516);
  const SequenceStore queries = synth::sample_queries(db, 4, 128, rng);
  const DbIndex index = DbIndex::build(db, {});

  MuBlastpOptions scalar_opts;
  scalar_opts.kernel = simd::KernelPath::kScalar;
  const MuBlastpEngine scalar_engine(index, {}, scalar_opts);
  const std::vector<QueryResult> ref =
      scalar_engine.search_batch(queries, 2);

  for (const simd::KernelPath path : vector_kernels()) {
    MuBlastpOptions opts;
    opts.kernel = path;
    const MuBlastpEngine engine(index, {}, opts);
    const std::vector<QueryResult> got = engine.search_batch(queries, 2);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expect_same_result(ref[i], got[i],
                         std::string(simd::kernel_name(path)) + " batch q" +
                             std::to_string(i));
    }
  }
}

// ---- hit_kernel telemetry --------------------------------------------------

TEST(HitSimdEngine, TelemetryBooksFlattenAndTiles) {
  const SkewWorkload w = make_skew_workload();
  const DbIndex index = DbIndex::build(w.db, {});

  MuBlastpOptions scalar_opts;
  scalar_opts.kernel = simd::KernelPath::kScalar;
  const MuBlastpEngine scalar_engine(index, {}, scalar_opts);
  stats::PipelineStats scalar_ps;
  const auto& low = w.queries.back();
  scalar_engine.search({low.data(), low.size()}, scalar_ps);
  // Scalar runs never build the flattened table or run the kernels: the
  // optional hit_kernel object stays empty.
  EXPECT_FALSE(scalar_ps.snapshot().hit_kernel.any());
  if (vector_kernels().empty()) GTEST_SKIP() << "no vector kernel on this CPU";

  for (const simd::KernelPath path : vector_kernels()) {
    MuBlastpOptions opts;
    opts.kernel = path;
    const MuBlastpEngine engine(index, {}, opts);
    stats::PipelineStats ps;
    engine.search({low.data(), low.size()}, ps);
    const stats::PipelineSnapshot snap = ps.snapshot();
    EXPECT_EQ(snap.hit_kernel.flatten_builds, 1u)
        << simd::kernel_name(path);
    EXPECT_GT(snap.hit_kernel.tiles, 0u) << simd::kernel_name(path);
  }
}

}  // namespace
}  // namespace mublastp
