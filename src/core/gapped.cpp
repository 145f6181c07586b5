#include "core/gapped.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace mublastp {
namespace {

constexpr Score kNegInf = std::numeric_limits<Score>::min() / 4;

// Traceback byte layout: bits 0-1 = source of H (0 diag, 1 from E, 2 from
// F, 3 cell pruned); bit 2 = the E path opened its gap here; bit 3 = the F
// path opened its gap here.
constexpr std::uint8_t kHDiag = 0;
constexpr std::uint8_t kHFromE = 1;
constexpr std::uint8_t kHFromF = 2;
constexpr std::uint8_t kInvalid = 3;
constexpr std::uint8_t kEOpen = 4;
constexpr std::uint8_t kFOpen = 8;

}  // namespace

GappedHalf xdrop_extend(std::span<const Residue> a, std::span<const Residue> b,
                        const ScoreMatrix& matrix, Score gap_open,
                        Score gap_extend, Score xdrop, bool traceback) {
  MUBLASTP_CHECK(gap_open >= 0 && gap_extend > 0, "invalid gap penalties");
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t m = static_cast<std::int64_t>(b.size());
  GappedHalf out;
  if (n == 0 && m == 0) return out;

  const Score open_cost = gap_open + gap_extend;  // cost of a length-1 gap

  Score best = 0;
  std::int64_t best_i = 0;
  std::int64_t best_j = 0;

  // Previous row's live band [lo, hi] with H and F values (E is carried
  // within a row only, so it needs no history).
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::vector<Score> h_prev;
  std::vector<Score> f_prev;

  // Row 0: pure horizontal gap runs.
  h_prev.push_back(0);
  f_prev.push_back(kNegInf);
  for (std::int64_t j = 1; j <= m; ++j) {
    const Score v = -(gap_open + static_cast<Score>(j) * gap_extend);
    if (best - v > xdrop) break;
    h_prev.push_back(v);
    f_prev.push_back(kNegInf);
    hi = j;
  }

  std::vector<std::vector<std::uint8_t>> tb;
  std::vector<std::int64_t> tb_lo;
  if (traceback) {
    std::vector<std::uint8_t> row0(h_prev.size(), kHFromE);
    row0[0] = kHDiag;
    if (row0.size() > 1) row0[1] |= kEOpen;
    tb.push_back(std::move(row0));
    tb_lo.push_back(0);
  }

  std::vector<Score> h_cur;
  std::vector<Score> f_cur;
  std::vector<std::uint8_t> tb_row;

  for (std::int64_t i = 1; i <= n; ++i) {
    const std::int64_t prev_lo = lo;
    const std::int64_t prev_hi = hi;
    const auto prev_h = [&](std::int64_t j) -> Score {
      return (j >= prev_lo && j <= prev_hi)
                 ? h_prev[static_cast<std::size_t>(j - prev_lo)]
                 : kNegInf;
    };
    const auto prev_f = [&](std::int64_t j) -> Score {
      return (j >= prev_lo && j <= prev_hi)
                 ? f_prev[static_cast<std::size_t>(j - prev_lo)]
                 : kNegInf;
    };

    h_cur.clear();
    f_cur.clear();
    tb_row.clear();
    std::int64_t cur_lo = -1;
    std::int64_t cur_hi = -2;

    Score e_run = kNegInf;  // E value at the previous column of this row
    Score h_left = kNegInf; // H value at the previous column of this row
    // Columns the previous row can feed diagonally/vertically end at
    // prev_hi + 1; beyond that only a horizontal run (E) can stay alive.
    for (std::int64_t j = prev_lo; j <= m; ++j) {
      // E: gap in a, consuming b[j-1].
      Score e_val = kNegInf;
      std::uint8_t flags = 0;
      if (j > prev_lo || j > 0) {
        const Score open_e = (h_left == kNegInf) ? kNegInf : h_left - open_cost;
        const Score ext_e = (e_run == kNegInf) ? kNegInf : e_run - gap_extend;
        if (open_e >= ext_e) {
          e_val = open_e;
          if (e_val != kNegInf) flags |= kEOpen;
        } else {
          e_val = ext_e;
        }
      }

      // F: gap in b, consuming a[i-1].
      Score f_val;
      {
        const Score h_up = prev_h(j);
        const Score f_up = prev_f(j);
        const Score open_f = (h_up == kNegInf) ? kNegInf : h_up - open_cost;
        const Score ext_f = (f_up == kNegInf) ? kNegInf : f_up - gap_extend;
        if (open_f >= ext_f) {
          f_val = open_f;
          if (f_val != kNegInf) flags |= kFOpen;
        } else {
          f_val = ext_f;
        }
      }

      // H: diagonal or close a gap.
      Score diag = kNegInf;
      if (j >= 1) {
        const Score h_diag = prev_h(j - 1);
        if (h_diag != kNegInf) {
          diag = h_diag + matrix(a[static_cast<std::size_t>(i - 1)],
                                 b[static_cast<std::size_t>(j - 1)]);
        }
      }
      Score h_val = diag;
      std::uint8_t src = kHDiag;
      if (e_val > h_val) {
        h_val = e_val;
        src = kHFromE;
      }
      if (f_val > h_val) {
        h_val = f_val;
        src = kHFromF;
      }

      const bool alive = (h_val > kNegInf / 2) && (best - h_val <= xdrop);
      if (!alive) {
        h_val = kNegInf;
        e_val = kNegInf;
        f_val = kNegInf;
        src = kInvalid;
        flags = 0;
      }

      if (alive && cur_lo == -1) cur_lo = j;
      if (cur_lo != -1) {
        h_cur.push_back(h_val);
        f_cur.push_back(f_val);
        if (traceback) tb_row.push_back(static_cast<std::uint8_t>(src | flags));
        if (alive) cur_hi = j;
      }

      h_left = h_val;
      e_run = e_val;

      if (alive && h_val > best) {
        best = h_val;
        best_i = i;
        best_j = j;
      }

      // Past the previous row's reach, only the horizontal E run matters;
      // once it dies the row is finished.
      if (j > prev_hi && !alive) break;
    }

    if (cur_lo == -1) {
      // Band died entirely: the extension is finished.
      if (traceback) {
        tb.push_back({});
        tb_lo.push_back(0);
      }
      break;
    }

    // Trim trailing pruned cells.
    const std::size_t live = static_cast<std::size_t>(cur_hi - cur_lo + 1);
    h_cur.resize(live);
    f_cur.resize(live);
    if (traceback) tb_row.resize(live);

    lo = cur_lo;
    hi = cur_hi;
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
    if (traceback) {
      tb.push_back(tb_row);
      tb_lo.push_back(lo);
    }
  }

  out.score = best;
  out.q_len = static_cast<std::uint32_t>(best_i);
  out.s_len = static_cast<std::uint32_t>(best_j);

  if (traceback && (best_i > 0 || best_j > 0)) {
    std::string ops;
    std::int64_t i = best_i;
    std::int64_t j = best_j;
    enum class St { H, E, F } st = St::H;
    while (i > 0 || j > 0) {
      const std::vector<std::uint8_t>& row = tb[static_cast<std::size_t>(i)];
      const std::int64_t row_lo = tb_lo[static_cast<std::size_t>(i)];
      MUBLASTP_CHECK(
          j >= row_lo && j - row_lo < static_cast<std::int64_t>(row.size()),
          "traceback walked outside the recorded band");
      const std::uint8_t cell = row[static_cast<std::size_t>(j - row_lo)];
      if (st == St::H) {
        const std::uint8_t src = cell & 3;
        MUBLASTP_CHECK(src != kInvalid, "traceback entered a pruned cell");
        if (src == kHDiag) {
          if (i == 0 && j == 0) break;
          ops.push_back('M');
          --i;
          --j;
        } else if (src == kHFromE) {
          st = St::E;
        } else {
          st = St::F;
        }
      } else if (st == St::E) {
        ops.push_back('D');  // gap in a: consumed b[j-1] only
        const bool opened = cell & kEOpen;
        --j;
        if (opened) st = St::H;
      } else {
        ops.push_back('I');  // gap in b: consumed a[i-1] only
        const bool opened = cell & kFOpen;
        --i;
        if (opened) st = St::H;
      }
    }
    std::reverse(ops.begin(), ops.end());
    out.ops = std::move(ops);
  }
  return out;
}

GappedHalf xdrop_extend(std::span<const Residue> a, std::span<const Residue> b,
                        const ScoreMatrix& matrix, Score gap_open,
                        Score gap_extend, Score xdrop, bool traceback,
                        simd::KernelPath kernel,
                        simd::GappedKernelCounters* counters) {
  // Traceback needs the direction matrix only the scalar DP records, so
  // stage 4 always runs scalar — kernel choice cannot touch transcripts.
  if (!traceback && kernel != simd::KernelPath::kScalar) {
    if (const auto ext = simd::xdrop_extend_banded(
            kernel, a, b, matrix, gap_open, gap_extend, xdrop, counters)) {
      GappedHalf out;
      out.score = ext->score;
      out.q_len = ext->a_len;
      out.s_len = ext->b_len;
      return out;
    }
  }
  return xdrop_extend(a, b, matrix, gap_open, gap_extend, xdrop, traceback);
}

GappedAlignment gapped_align(std::span<const Residue> query,
                             std::span<const Residue> subject,
                             const UngappedAlignment& ungapped,
                             const ScoreMatrix& matrix,
                             const SearchParams& params, bool traceback) {
  return gapped_align(query, subject, ungapped, matrix, params, traceback,
                      simd::KernelPath::kScalar, nullptr);
}

GappedAlignment gapped_align(std::span<const Residue> query,
                             std::span<const Residue> subject,
                             const UngappedAlignment& ungapped,
                             const ScoreMatrix& matrix,
                             const SearchParams& params, bool traceback,
                             simd::KernelPath kernel,
                             simd::GappedKernelCounters* counters,
                             std::span<const Residue> query_reversed) {
  MUBLASTP_CHECK(ungapped.q_end > ungapped.q_start,
                 "cannot seed from an empty ungapped segment");
  // Anchor at the midpoint of the ungapped segment. All engines share this
  // choice, so gapped outputs stay engine-invariant.
  const std::uint32_t mid = (ungapped.q_end - ungapped.q_start - 1) / 2;
  const std::uint32_t qm = ungapped.q_start + mid;
  const std::uint32_t sm = ungapped.s_start + mid;
  GappedAlignment aln =
      gapped_align_at_anchor(query, subject, qm, sm, matrix, params,
                             traceback, kernel, counters, query_reversed);
  aln.subject = ungapped.subject;
  return aln;
}

GappedAlignment gapped_align_at_anchor(std::span<const Residue> query,
                                       std::span<const Residue> subject,
                                       std::uint32_t qm, std::uint32_t sm,
                                       const ScoreMatrix& matrix,
                                       const SearchParams& params,
                                       bool traceback) {
  return gapped_align_at_anchor(query, subject, qm, sm, matrix, params,
                                traceback, simd::KernelPath::kScalar, nullptr);
}

GappedAlignment gapped_align_at_anchor(std::span<const Residue> query,
                                       std::span<const Residue> subject,
                                       std::uint32_t qm, std::uint32_t sm,
                                       const ScoreMatrix& matrix,
                                       const SearchParams& params,
                                       bool traceback, simd::KernelPath kernel,
                                       simd::GappedKernelCounters* counters,
                                       std::span<const Residue>
                                           query_reversed) {
  MUBLASTP_CHECK(qm < query.size() && sm < subject.size(),
                 "anchor outside the sequences");
  MUBLASTP_CHECK(query_reversed.empty() ||
                     query_reversed.size() == query.size(),
                 "reversed query differs in length from the query");
  // Left half runs on reversed prefixes. The query's is a suffix of the
  // reversed query when the caller built one; a query can be titin-long,
  // so copying its prefix per extension would cost more than many DPs.
  std::vector<Residue> qcopy;
  std::span<const Residue> qrev;
  if (query_reversed.empty()) {
    qcopy.assign(query.rend() - qm, query.rend());
    qrev = qcopy;
  } else {
    qrev = query_reversed.last(qm);
  }
  const std::vector<Residue> srev(subject.rend() - sm, subject.rend());

  const GappedHalf left =
      xdrop_extend(qrev, srev, matrix, params.gap_open, params.gap_extend,
                   params.gapped_xdrop, traceback, kernel, counters);
  const GappedHalf right = xdrop_extend(
      query.subspan(qm + 1), subject.subspan(sm + 1), matrix, params.gap_open,
      params.gap_extend, params.gapped_xdrop, traceback, kernel, counters);

  GappedAlignment aln;
  aln.score = left.score + matrix(query[qm], subject[sm]) + right.score;
  aln.q_start = qm - left.q_len;
  aln.q_end = qm + 1 + right.q_len;
  aln.s_start = sm - left.s_len;
  aln.s_end = sm + 1 + right.s_len;
  aln.anchor_q = qm;
  aln.anchor_s = sm;
  if (traceback) {
    std::string ops(left.ops.rbegin(), left.ops.rend());
    ops.push_back('M');  // the anchor pair
    ops.append(right.ops);
    aln.ops = std::move(ops);
  }
  return aln;
}

Score score_of_transcript(std::span<const Residue> query,
                          std::span<const Residue> subject,
                          const GappedAlignment& aln, const ScoreMatrix& matrix,
                          Score gap_open, Score gap_extend) {
  Score total = 0;
  std::size_t qi = aln.q_start;
  std::size_t si = aln.s_start;
  char prev = 'M';
  for (const char op : aln.ops) {
    switch (op) {
      case 'M':
        total += matrix(query[qi], subject[si]);
        ++qi;
        ++si;
        break;
      case 'I':  // gap in subject: query residue unmatched
        total -= (prev == 'I') ? gap_extend : gap_open + gap_extend;
        ++qi;
        break;
      case 'D':  // gap in query: subject residue unmatched
        total -= (prev == 'D') ? gap_extend : gap_open + gap_extend;
        ++si;
        break;
      default:
        throw Error("invalid transcript op");
    }
    prev = op;
  }
  MUBLASTP_CHECK(qi == aln.q_end && si == aln.s_end,
                 "transcript does not span the alignment coordinates");
  return total;
}

}  // namespace mublastp
