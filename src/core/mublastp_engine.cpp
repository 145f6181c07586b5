#include "core/mublastp_engine.hpp"

#include <omp.h>

#include <algorithm>
#include <bit>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "common/faultinject.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "core/diag_keys.hpp"
#include "core/fragment_assembly.hpp"
#include "core/ungapped.hpp"
#include "sort/radix.hpp"
#include "trace/trace.hpp"

namespace mublastp {
namespace {

// Validates before any member initializer dereferences params.matrix.
const SearchParams& checked_params(const SearchParams& p) {
  p.validate();
  return p;
}

// Cuts `items`, sorted by `key`, into `parts` ranges of about equal length
// (cuts[c] to cuts[c + 1]), each cut moved forward to the next change of
// key so that all items of one key fall in one range. Ranges may be empty.
template <typename T, typename Key>
void cut_at_key_changes(std::span<const T> items, std::size_t parts,
                        const Key& key, std::vector<std::size_t>& cuts) {
  const std::size_t n = items.size();
  cuts.assign(parts + 1, n);
  cuts[0] = 0;
  for (std::size_t c = 1; c < parts; ++c) {
    std::size_t p = std::max(cuts[c - 1], n * c / parts);
    while (p > 0 && p < n && key(items[p]) == key(items[p - 1])) ++p;
    cuts[c] = p;
  }
}

}  // namespace

std::uint64_t MuBlastpEngine::Workspace::footprint_bytes() const {
  return static_cast<std::uint64_t>(state.footprint_bytes()) +
         records.capacity() * sizeof(HitRecord) +
         rec_scratch.capacity() * sizeof(HitRecord) +
         scan_entries.capacity() * sizeof(std::uint32_t) +
         bases.capacity() * sizeof(std::uint32_t);
}

bool MuBlastpEngine::Workspace::enforce_budget() {
  if (mem_budget == 0 || footprint_bytes() <= mem_budget) return false;
  ++mem_trips;
  // Drop every retained buffer outright (moving from an empty temporary
  // releases capacity, unlike clear()). The next round reallocates exactly
  // what it needs; only cross-round retention is sacrificed.
  state = DiagState{};
  records = {};
  rec_scratch = {};
  scan_entries = {};
  bases = {};
  records_hwm = 0;
  return true;
}

MuBlastpEngine::MuBlastpEngine(DbIndexView index, SearchParams params,
                               MuBlastpOptions options)
    : view_(std::move(index)),
      neighbors_(*view_.config().matrix, view_.config().neighbor_threshold),
      params_(checked_params(params)),
      options_(options),
      karlin_(gapped_params(*params.matrix, params.gap_open,
                            params.gap_extend)) {
  MUBLASTP_CHECK(params_.matrix == view_.config().matrix,
                 "search matrix must match the index's neighbor matrix");
}

void MuBlastpEngine::sort_records(std::vector<HitRecord>& records,
                                  int key_bits) const {
  const auto key = [](const HitRecord& r) { return r.key; };
  switch (options_.sort_algo) {
    case MuBlastpOptions::SortAlgo::kRadixLsd:
      sorting::radix_sort_lsd(records, key, key_bits);
      break;
    case MuBlastpOptions::SortAlgo::kRadixMsd:
      sorting::radix_sort_msd(records, key, key_bits);
      break;
    case MuBlastpOptions::SortAlgo::kMergeSort:
      sorting::merge_sort(records, key);
      break;
    case MuBlastpOptions::SortAlgo::kStdStable:
      std::stable_sort(records.begin(), records.end(),
                       [](const HitRecord& a, const HitRecord& b) {
                         return a.key < b.key;
                       });
      break;
  }
}

template <typename Mem>
void MuBlastpEngine::detect_and_sort(std::span<const Residue> query,
                                     const DbBlockView& block,
                                     StageStats& stats, Workspace& ws,
                                     const FlatNeighborhood* flat, Mem mem,
                                     trace::StageRecorder& prec) const {
  // Dense per-block diagonal keys (core/diag_keys.hpp): compact keys mean
  // fewer radix passes and a last-hit array of ~2x the block's position
  // bytes, the footprint Section V-B budgets for.
  const std::uint32_t qlen = static_cast<std::uint32_t>(query.size());
  MUBLASTP_CHECK_KIND(!MUBLASTP_FI_FAIL("alloc.workspace"),
                      ErrorKind::kResource,
                      "injected workspace allocation failure"
                      " (alloc.workspace)");
  const std::uint32_t keys =
      diagonal_key_bases(block.fragments(), qlen, ws.bases);
  const int key_bits = std::max(1, static_cast<int>(std::bit_width(keys - 1)));

  ws.state.resize(keys);
  ws.state.new_round(static_cast<std::int32_t>(qlen) + 1);
  ws.records.clear();
  if (ws.records.capacity() < ws.records_hwm) {
    ws.records.reserve(ws.records_hwm);
  }
  prec.mark();

  // ---- Stage 1: hit detection (+ pre-filter with Algorithm 2). --------
  // Only index structures and the last-hit array are touched here — no
  // subject residues — which is why the pre-filter does not reintroduce the
  // cache-thrash it removes from the sort (Section IV-C).
  //
  // Two implementations, bit-identical by construction and by test:
  //   - the query-specialized path (flat != nullptr, vector kernel, never
  //     traced): the pre-built FlatNeighborhood replaces word_key + the
  //     neighbor-table indirection, the next posting list is prefetched
  //     while the current one scans, and each posting list runs through the
  //     chunked hit-scan kernels (decode + last-hit prefetch + vector
  //     two-hit prefilter);
  //   - the classic two-level scan below, which stays the authoritative
  //     reference (scalar kernel and memsim-traced runs always take it).
  bool use_flat = false;
  if constexpr (!Mem::kEnabled) {
    use_flat = flat != nullptr && options_.kernel != simd::KernelPath::kScalar;
  }
  if (use_flat) {
    simd::HitScanTallies tallies;
    const simd::HitScanFilter filter{ws.state.raw_last(), ws.state.base(),
                                     params_.two_hit_min,
                                     params_.two_hit_window};
    const std::uint32_t npos = flat->positions();
    for (std::uint32_t qoff = 0; qoff < npos; ++qoff) {
      const auto words = flat->words(qoff);
      // Fuse this position's posting lists into ONE scan. Distinct words
      // index disjoint (fragment, offset) sets, so at a fixed qoff the
      // fused keys stay pairwise distinct (the kernel's conflict-freedom
      // precondition), and concatenating in word order preserves the
      // classic visit order — and thus the record stream — exactly. The
      // payoff is depth: one kernel call over the position's whole
      // neighborhood (often hundreds of entries) instead of dozens of
      // sub-chunk-sized lists, so the chunked last-hit prefetch actually
      // runs ahead of the filter.
      ws.scan_entries.clear();
      for (std::size_t wi = 0; wi < words.size(); ++wi) {
        const auto entries = block.entries(words[wi]);
        if (wi + 1 < words.size()) {
          __builtin_prefetch(block.entries(words[wi + 1]).data());
        }
        ws.scan_entries.insert(ws.scan_entries.end(), entries.begin(),
                               entries.end());
      }
      if (ws.scan_entries.empty()) continue;
      stats.hits += ws.scan_entries.size();
      const simd::HitScan scan{ws.scan_entries.data(),
                               ws.scan_entries.size(),
                               ws.bases.data(),
                               block.offset_bits(),
                               qoff,
                               qlen - qoff};
      if (options_.prefilter) {
        if (ws.rec_scratch.size() < scan.count) {
          ws.rec_scratch.resize(scan.count);
        }
        const std::size_t cnt = simd::hit_scan_prefilter(
            options_.kernel, scan, filter, ws.rec_scratch.data(), &tallies);
        stats.hit_pairs += cnt;
        ws.records.insert(ws.records.end(), ws.rec_scratch.begin(),
                          ws.rec_scratch.begin() +
                              static_cast<std::ptrdiff_t>(cnt));
      } else {
        const std::size_t old = ws.records.size();
        ws.records.resize(old + scan.count);
        simd::hit_scan_collect(options_.kernel, scan,
                               ws.records.data() + old, &tallies);
      }
    }
    prec.hit_scan(tallies.tiles, tallies.tail_entries);
  } else {
    for (std::uint32_t qoff = 0; qoff + kWordLength <= query.size(); ++qoff) {
      if constexpr (Mem::kEnabled) {
        mem.touch(query.data() + qoff, kWordLength);
      }
      const std::uint32_t w = word_key(query.data() + qoff);
      const auto nbs = neighbors_.neighbors(w);
      if constexpr (Mem::kEnabled) {
        mem.touch(nbs.data(), nbs.size_bytes());
      }
      for (const std::uint32_t nb : nbs) {
        const auto entries = block.entries(nb);
        if constexpr (Mem::kEnabled) {
          mem.touch(entries.data(), entries.size_bytes());
        }
        for (const std::uint32_t entry : entries) {
          ++stats.hits;
          const std::uint32_t local = block.entry_fragment(entry);
          const std::uint32_t soff = block.entry_offset(entry);
          const std::uint32_t key = ws.bases[local] +
                                    static_cast<std::uint32_t>(
                                        static_cast<std::int64_t>(soff) -
                                        qoff + qlen);

          if (options_.prefilter) {
            const std::int32_t q = static_cast<std::int32_t>(qoff);
            const std::int32_t last = ws.state.last_hit(key, mem);
            if (last != DiagState::kNone && q - last < params_.two_hit_min) {
              continue;  // overlapping hit: ignored
            }
            const bool paired = last != DiagState::kNone &&
                                q - last < params_.two_hit_window;
            ws.state.set_last_hit(key, q, mem);
            if (!paired) continue;
            ++stats.hit_pairs;
          }
          ws.records.push_back({key, qoff});
          if constexpr (Mem::kEnabled) {
            mem.touch(&ws.records.back(), sizeof(HitRecord));
          }
        }
      }
    }
  }

  // ---- Stage 2a: hit reordering. ---------------------------------------
  prec.mark();
  ws.records_hwm = std::max(ws.records_hwm, ws.records.size());
  stats.sorted_records += ws.records.size();
  if constexpr (Mem::kEnabled) {
    // The sort streams the buffer once per digit (read + write); model that
    // traffic so traced miss rates account for it.
    const int passes = (key_bits + sorting::kRadixBits - 1) / sorting::kRadixBits;
    for (int p = 0; p < passes; ++p) {
      for (const HitRecord& r : ws.records) {
        mem.touch(&r, sizeof(HitRecord));
      }
    }
  }
  sort_records(ws.records, key_bits);
  MUBLASTP_CHECK(!MUBLASTP_FI_FAIL("stage.ungapped"),
                 "injected ungapped-stage failure (stage.ungapped)");
}

template <typename Mem>
void MuBlastpEngine::ungapped_sweep(std::span<const Residue> query,
                                    const DbBlockView& block,
                                    std::span<const HitRecord> records,
                                    std::span<const std::uint32_t> bases,
                                    StageStats& stats,
                                    std::vector<UngappedAlignment>& out,
                                    Mem mem) const {
  if (records.empty()) return;
  const ScoreMatrix& matrix = *params_.matrix;
  // The block's fragments point into its own member's store.
  const DbIndexView::Member& db = view_.members()[block.member()];
  const std::uint32_t qlen = static_cast<std::uint32_t>(query.size());

  // ---- Stage 2b: (post-)filter + ungapped extension in sorted order. ---
  // Without the pre-filter this is Algorithm 1: pair detection runs here,
  // over the sorted stream, with plain scalars instead of arrays. Keys are
  // ascending, so the owning fragment is recovered with a monotone cursor,
  // started by binary search so that a chunk of a split round (which
  // starts at a key change) sweeps exactly as the whole stream would.
  std::uint32_t frag_cursor = static_cast<std::uint32_t>(
      std::upper_bound(bases.begin(), bases.end(), records.front().key) -
      bases.begin() - 1);
  std::uint32_t pair_key = ~std::uint32_t{0};
  std::int32_t pair_last = DiagState::kNone;
  std::uint32_t ext_key = ~std::uint32_t{0};
  std::int32_t ext_reached = DiagState::kNone;

  for (const HitRecord& rec : records) {
    if constexpr (Mem::kEnabled) {
      mem.touch(&rec, sizeof(HitRecord));
    }
    if (!options_.prefilter) {
      // Pair detection over the sorted stream (Algorithm 1 lines 7-14).
      const std::int32_t q = static_cast<std::int32_t>(rec.qoff);
      const bool same = rec.key == pair_key;
      const std::int32_t last = same ? pair_last : DiagState::kNone;
      if (last != DiagState::kNone && q - last < params_.two_hit_min) {
        continue;  // overlapping hit: ignored
      }
      pair_key = rec.key;
      pair_last = q;
      const bool paired =
          last != DiagState::kNone && q - last < params_.two_hit_window;
      if (!paired) continue;
      ++stats.hit_pairs;
    }

    // Coverage check (Algorithm 1 lines 16-17).
    if (rec.key != ext_key) {
      ext_key = rec.key;
      ext_reached = DiagState::kNone;
    }
    if (ext_reached != DiagState::kNone &&
        ext_reached > static_cast<std::int32_t>(rec.qoff)) {
      continue;
    }

    while (rec.key >= bases[frag_cursor + 1]) ++frag_cursor;
    const std::uint32_t diag_idx = rec.key - bases[frag_cursor];
    const std::uint32_t soff = diag_idx + rec.qoff - qlen;

    ++stats.extensions;
    const FragmentRef& frag = block.fragments()[frag_cursor];
    const std::span<const Residue> subject =
        db.sequence(frag.seq).subspan(frag.start, frag.len);
    const UngappedSeg seg = ungapped_extend(query, subject, rec.qoff, soff,
                                            matrix, params_.ungapped_xdrop,
                                            mem);
    if (seg.score >= params_.ungapped_cutoff) {
      ++stats.ungapped_alignments;
      out.push_back(resolve_fragment_segment(query, db, frag, seg, rec.qoff,
                                             soff, matrix, params_));
      out.back().subject += db.first_seq;
      ext_reached = static_cast<std::int32_t>(seg.q_end);
    } else {
      ext_reached = static_cast<std::int32_t>(rec.qoff);
    }
  }
}

template <typename Mem>
void MuBlastpEngine::search_block(std::span<const Residue> query,
                                  const DbBlockView& block,
                                  std::uint32_t block_id, StageStats& stats,
                                  std::vector<UngappedAlignment>& out,
                                  Workspace& ws, const FlatNeighborhood* flat,
                                  Mem mem, trace::StageRecorder& prec) const {
  const StageStats before = stats;
  detect_and_sort(query, block, stats, ws, flat, mem, prec);
  prec.mark();
  ungapped_sweep(query, block, ws.records, ws.bases, stats, out, mem);
  prec.workspace(ws.footprint_bytes());
  prec.block_round(block_id, stats::counters_between(stats, before));
}

template <typename Mem>
QueryResult MuBlastpEngine::search_impl(std::span<const Residue> query,
                                        Mem mem,
                                        trace::StageRecorder prec) const {
  MUBLASTP_CHECK(query.size() >= static_cast<std::size_t>(kWordLength),
                 "query shorter than word length");
  QueryResult result;
  std::vector<UngappedAlignment> ungapped;
  Workspace ws;
  // Query-setup: flatten the neighbor lookup once, reused by every block.
  // Traced runs skip it (the modeled access stream is the classic scan's).
  FlatNeighborhood flat;
  const FlatNeighborhood* flatp = nullptr;
  if constexpr (!Mem::kEnabled) {
    if (options_.kernel != simd::KernelPath::kScalar) {
      prec.mark();
      flat.build(query, neighbors_);
      flatp = &flat;
      prec.flatten(1);
    }
  }
  std::uint32_t block_id = 0;
  for (const DbBlockView& block : view_.blocks()) {
    search_block(query, block, block_id++, result.stats, ungapped, ws, flatp,
                 mem, prec);
  }

  for (UngappedAlignment& u : ungapped) {
    u.subject = view_.original_id(u.subject);
  }
  canonicalize_ungapped(ungapped);
  result.ungapped = ungapped;

  const ScoreMatrix& matrix = *params_.matrix;
  const SubjectLookup lookup = [this](SeqId original) {
    return view_.sequence(view_.sorted_id(original));
  };
  const StageStats before = result.stats;
  prec.mark();
  // Traced runs keep the scalar gapped DP (same reasoning as stage 2b:
  // the modeled access stream must be the reference one).
  const simd::KernelPath gapped_kernel =
      Mem::kEnabled ? simd::KernelPath::kScalar : options_.kernel;
  auto gapped = gapped_stage(query, lookup, std::move(ungapped), matrix,
                             params_, &result.stats, gapped_kernel);
  prec.stage(stats::Stage::kGapped,
             stats::counters_between(result.stats, before));
  result.alignments =
      finalize_stage(query, lookup, std::move(gapped), matrix, params_,
                     karlin_, statistical_db_residues());
  prec.stage(stats::Stage::kFinalize, {});
  return result;
}

QueryResult MuBlastpEngine::search(std::span<const Residue> query) const {
  return search_impl(query, memsim::NullMemoryModel{}, {});
}

QueryResult MuBlastpEngine::search(std::span<const Residue> query,
                                   stats::PipelineStats& ps) const {
  ps.begin_run(1, view_.blocks().size(), 1);
  ps.set_kernel(simd::kernel_name(options_.kernel));
  Timer total;
  QueryResult result = search_impl(query, memsim::NullMemoryModel{},
                                   {&ps, 0, nullptr, trace::kNoId});
  ps.set_gapped_kernel(stats::gapped_kernel_of(result.stats));
  ps.finish_run(total.seconds());
  return result;
}

QueryResult MuBlastpEngine::search_traced(std::span<const Residue> query,
                                          memsim::MemoryHierarchy& mem) const {
  return search_impl(query, memsim::TracingMemoryModel(mem), {});
}

QueryResult MuBlastpEngine::search(std::span<const Residue> query,
                                   std::uint32_t query_id,
                                   trace::Tracer& tracer) const {
  return search_impl(query, memsim::NullMemoryModel{},
                     {nullptr, 0, &tracer, query_id});
}

std::vector<QueryResult> MuBlastpEngine::search_batch(
    const SequenceStore& queries, int threads, stats::PipelineStats* ps,
    stats::DegradedStats* degraded, trace::Tracer* tracer) const {
  MUBLASTP_CHECK(threads > 0, "thread count must be positive");
  const std::size_t nq = queries.size();
  std::vector<QueryResult> results(nq);
  std::vector<std::vector<UngappedAlignment>> ungapped(nq);
  const auto query_of = [&queries](std::size_t i) {
    return queries.sequence(static_cast<SeqId>(i));
  };

  // A batch with fewer queries than threads splits each query into
  // `parts` = ceil(threads / queries) parts so that every thread has work:
  // chunks of each round's sorted records for stage 2b, runs of whole
  // subjects for stage 3. With parts = 1 each query is one task per stage
  // region, as in Algorithm 3.
  const std::size_t parts =
      nq == 0 ? 1 : (static_cast<std::size_t>(threads) + nq - 1) / nq;
  const bool split = parts > 1;

  // One workspace per thread. A split batch gives each query its own
  // instead: its chunks read the round's records after the round's task
  // has ended, and only as many DiagStates grow as there are queries.
  std::vector<Workspace> workspaces(split ? nq
                                          : static_cast<std::size_t>(threads));
  if (options_.mem_budget_bytes != 0) {
    const std::uint64_t share =
        std::max<std::uint64_t>(1, options_.mem_budget_bytes /
                                       workspaces.size());
    for (Workspace& ws : workspaces) ws.mem_budget = share;
  }
  const Timer run_timer;
  if (ps != nullptr) {
    ps->begin_run(threads, view_.blocks().size(), nq);
    ps->set_kernel(simd::kernel_name(options_.kernel));
  }

  // Query-setup (the flattened-lookup specialization): one FlatNeighborhood
  // per query, built before the block loop so every (block, query) round
  // reuses it. Scalar-kernel batches skip the tables entirely — their
  // stage 1 runs the classic two-level scan unchanged.
  std::vector<FlatNeighborhood> flats;
  if (options_.kernel != simd::KernelPath::kScalar) {
    trace::StageRecorder prec(ps, 0, tracer, trace::kNoId);
    prec.mark();
    flats.resize(nq);
    for (std::size_t i = 0; i < nq; ++i) {
      flats[i].build(query_of(i), neighbors_);
    }
    prec.flatten(nq);
  }

  // Degraded-mode bookkeeping. `marks[i]` snapshots ungapped[i].size()
  // before each block so a failing block's contributions can be purged
  // (blocks run serially; a block's hits are a contiguous tail). `tripped`
  // marks queries cut off by the per-query time budget, which charges each
  // round from the start of its hit detection (`round_begin[i]`) to the end
  // of its last sweep (`part_end[i * parts + c]`), in run seconds read only
  // when there is a budget.
  const double time_budget = options_.time_budget_seconds;
  std::vector<std::size_t> marks(nq, 0);
  std::vector<double> elapsed(nq, 0.0);
  std::vector<char> tripped(nq, 0);
  std::vector<double> round_begin(nq, 0.0);
  std::vector<double> part_end(nq * parts, 0.0);

  // A split query's cut positions (chunks of its records, then runs of its
  // subjects), and each part's output and counters, folded into the
  // query's at a serial point so that no two tasks write one query's
  // state. Reused across blocks.
  std::vector<std::vector<std::size_t>> cuts(split ? nq : 0);
  std::vector<std::vector<UngappedAlignment>> chunk_out(split ? nq * parts
                                                              : 0);
  std::vector<StageStats> part_stats(split ? nq * parts : 0);

  // Algorithm 3, first parallel region: stages 1-2, block loop outermost so
  // the block's index is shared in cache across threads. Each (block,
  // query) round is one dynamic task, and a split round's chunks are one
  // task each once every round of the block is sorted. Tasks write only
  // their own query's or part's state and their thread's telemetry
  // accumulator, which is merged at the block's end, so no synchronization
  // is needed. A task that throws fails its block: strict mode rethrows,
  // degraded mode quarantines the block and keeps going.
  std::uint32_t block_id = 0;
  for (const DbBlockView& block : view_.blocks()) {
    for (std::size_t i = 0; i < nq; ++i) marks[i] = ungapped[i].size();
    if (time_budget > 0.0) std::fill(part_end.begin(), part_end.end(), 0.0);
    std::exception_ptr block_error =
        parallel_tasks(threads, nq, [&](std::size_t i) {
          if (tripped[i]) return;
          const int tid = omp_get_thread_num();
          Workspace& ws =
              workspaces[split ? i : static_cast<std::size_t>(tid)];
          if (time_budget > 0.0) round_begin[i] = run_timer.seconds();
          const FlatNeighborhood* flat = flats.empty() ? nullptr : &flats[i];
          trace::StageRecorder prec(ps, tid, tracer,
                                    static_cast<std::uint32_t>(i));
          StageStats& stats = results[i].stats;
          if (!split) {
            search_block(query_of(i), block, block_id, stats, ungapped[i], ws,
                         flat, memsim::NullMemoryModel{}, prec);
            ws.enforce_budget();
            if (time_budget > 0.0) part_end[i] = run_timer.seconds();
            return;
          }
          const StageStats before = stats;
          detect_and_sort(query_of(i), block, stats, ws, flat,
                          memsim::NullMemoryModel{}, prec);
          cut_at_key_changes(std::span<const HitRecord>(ws.records), parts,
                             [](const HitRecord& r) { return r.key; },
                             cuts[i]);
          prec.workspace(ws.footprint_bytes());
          prec.block_round(block_id, stats::counters_between(stats, before));
        });
    if (split && block_error == nullptr) {
      block_error = parallel_tasks(threads, nq * parts, [&](std::size_t t) {
        const std::size_t i = t / parts;
        if (tripped[i]) return;
        const std::size_t c = t % parts;
        const Workspace& ws = workspaces[i];
        trace::StageRecorder prec(ps, omp_get_thread_num(), tracer,
                                  static_cast<std::uint32_t>(i));
        prec.mark();
        ungapped_sweep(query_of(i), block,
                       std::span<const HitRecord>(ws.records)
                           .subspan(cuts[i][c], cuts[i][c + 1] - cuts[i][c]),
                       ws.bases, part_stats[t], chunk_out[t],
                       memsim::NullMemoryModel{});
        prec.block_chunk(block_id, stats::counters_of(part_stats[t]));
        if (time_budget > 0.0) part_end[t] = run_timer.seconds();
      });
    }
    if (split) {
      // Chunks join their query's list in chunk order: the order of one
      // sweep over the whole record stream.
      for (std::size_t t = 0; t < nq * parts; ++t) {
        std::vector<UngappedAlignment>& u = ungapped[t / parts];
        u.insert(u.end(), chunk_out[t].begin(), chunk_out[t].end());
        chunk_out[t].clear();
        results[t / parts].stats += part_stats[t];
        part_stats[t] = {};
      }
      for (Workspace& ws : workspaces) ws.enforce_budget();
    }
    if (time_budget > 0.0) {
      for (std::size_t i = 0; i < nq; ++i) {
        if (tripped[i]) continue;
        double end = round_begin[i];
        for (std::size_t t = i * parts; t < (i + 1) * parts; ++t) {
          end = std::max(end, part_end[t]);
        }
        elapsed[i] += end - round_begin[i];
        if (elapsed[i] > time_budget) tripped[i] = 1;
      }
    }
    if (block_error != nullptr) {
      if (degraded == nullptr) std::rethrow_exception(block_error);
      // Quarantine: purge every query's contribution from this block so the
      // output is exactly "the surviving blocks' hits", then continue.
      for (std::size_t i = 0; i < nq; ++i) ungapped[i].resize(marks[i]);
      std::string reason = "worker failed";
      try {
        std::rethrow_exception(block_error);
      } catch (const std::exception& e) {
        reason = e.what();
      } catch (...) {
      }
      degraded->quarantined.push_back({block_id, std::move(reason)});
      degraded->partial = true;
    }
    if (ps != nullptr) ps->merge_block(block_id);
    if (tracer != nullptr) tracer->flush();
    if (options_.progress) {
      MuBlastpOptions::BatchProgress p;
      p.blocks_done = block_id + 1;
      p.blocks_total = static_cast<std::uint32_t>(view_.blocks().size());
      p.queries = nq;
      p.quarantined_blocks =
          degraded == nullptr ? 0 : degraded->quarantined.size();
      options_.progress(p);
    }
    ++block_id;
  }

  if (time_budget > 0.0) {
    std::uint64_t trips = 0;
    for (std::size_t i = 0; i < nq; ++i) trips += tripped[i] != 0;
    if (trips != 0) {
      MUBLASTP_CHECK_KIND(degraded != nullptr, ErrorKind::kCanceled,
                          "query exceeded the time budget of " +
                              std::to_string(time_budget) + "s");
      degraded->time_budget_trips += trips;
      degraded->partial = true;
    }
  }
  if (degraded != nullptr) {
    for (const Workspace& ws : workspaces) {
      degraded->mem_budget_trips += ws.mem_trips;
    }
  }

  // Algorithm 3, second parallel region: stages 3-4 per query (gapped
  // extension, merge, sort, traceback). A split query's canonical ungapped
  // list is cut into `parts` runs of whole subjects, balanced by segment
  // count; each run's gapped stage is a task, and finalize runs once per
  // query over all its runs' outputs. Stage 3's redundancy skip and stage
  // 4's culling compare alignments of one subject only, and stage 4 ranks
  // by a total order, so the runs finalize to the unsplit result.
  const ScoreMatrix& matrix = *params_.matrix;
  const SubjectLookup lookup = [this](SeqId original) {
    return view_.sequence(view_.sorted_id(original));
  };
  const auto finalize = [&](std::size_t i,
                            std::vector<GappedAlignment> gapped,
                            trace::StageRecorder& prec) {
    results[i].alignments =
        finalize_stage(query_of(i), lookup, std::move(gapped), matrix,
                       params_, karlin_, statistical_db_residues());
    prec.stage(stats::Stage::kFinalize, {});
  };
  std::vector<std::vector<GappedAlignment>> run_out(split ? nq * parts : 0);
  std::exception_ptr tail_error =
      parallel_tasks(threads, nq, [&](std::size_t i) {
        auto& u = ungapped[i];
        for (UngappedAlignment& seg : u) {
          seg.subject = view_.original_id(seg.subject);
        }
        canonicalize_ungapped(u);
        results[i].ungapped = u;
        // A time-tripped query stops after stages 1-2: its ungapped hits are
        // reported, the gapped stage is skipped (that is the cut-off).
        if (tripped[i]) return;
        if (split) {
          cut_at_key_changes(
              std::span<const UngappedAlignment>(u), parts,
              [](const UngappedAlignment& a) { return a.subject; }, cuts[i]);
          return;
        }
        const StageStats before = results[i].stats;
        trace::StageRecorder prec(ps, omp_get_thread_num(), tracer,
                                  static_cast<std::uint32_t>(i));
        prec.mark();
        auto gapped = gapped_stage(query_of(i), lookup, std::move(u), matrix,
                                   params_, &results[i].stats, options_.kernel);
        prec.stage(stats::Stage::kGapped,
                   stats::counters_between(results[i].stats, before));
        finalize(i, std::move(gapped), prec);
      });
  if (split && tail_error == nullptr) {
    tail_error = parallel_tasks(threads, nq * parts, [&](std::size_t t) {
      const std::size_t i = t / parts;
      if (tripped[i]) return;
      const std::size_t r = t % parts;
      const auto first = ungapped[i].begin();
      trace::StageRecorder prec(ps, omp_get_thread_num(), tracer,
                                static_cast<std::uint32_t>(i));
      prec.mark();
      run_out[t] = gapped_stage(
          query_of(i), lookup,
          std::vector<UngappedAlignment>(
              first + static_cast<std::ptrdiff_t>(cuts[i][r]),
              first + static_cast<std::ptrdiff_t>(cuts[i][r + 1])),
          matrix, params_, &part_stats[t], options_.kernel);
      prec.stage(stats::Stage::kGapped, stats::counters_of(part_stats[t]));
    });
  }
  if (split && tail_error == nullptr) {
    tail_error = parallel_tasks(threads, nq, [&](std::size_t i) {
      if (tripped[i]) return;
      std::vector<GappedAlignment> gapped;
      for (std::size_t t = i * parts; t < (i + 1) * parts; ++t) {
        results[i].stats += part_stats[t];
        gapped.insert(gapped.end(), run_out[t].begin(), run_out[t].end());
      }
      trace::StageRecorder prec(ps, omp_get_thread_num(), tracer,
                                static_cast<std::uint32_t>(i));
      prec.mark();
      finalize(i, std::move(gapped), prec);
    });
  }
  // Stage-3/4 failures have no block to quarantine; fail the batch cleanly.
  if (tail_error != nullptr) std::rethrow_exception(tail_error);
  if (tracer != nullptr) tracer->flush();
  if (ps != nullptr) {
    stats::GappedKernelStats gk;
    for (const QueryResult& r : results) gk += stats::gapped_kernel_of(r.stats);
    ps->set_gapped_kernel(gk);
    ps->finish_run(run_timer.seconds());
  }
  return results;
}

}  // namespace mublastp
