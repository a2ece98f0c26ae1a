// Leading-zero / leading-sign anticipation (LZA).
//
// Classic FMA architectures (Fig 4) use an LZA to compute the normalization
// shift in parallel with the final carry-propagate addition [Schmookler &
// Nowka].  The FCS-FMA of Sec. III-G uses LZAs on the *inputs* (A and C) to
// anticipate the result's leading-zero count at block granularity.  Both
// consume a pair of bit planes — which is exactly what a CS number is —
// and are inexact by up to one bit position.
//
// Definitions used here: for the signed value R = (A + B) mod 2^W,
// leading_sign_run(R, W) is the number of most-significant bits that are
// redundant sign copies (i.e. the window can shrink by that many bits
// without changing the value).  lza_estimate() returns a LOWER BOUND on
// that count with error at most kLzaMaxError — the safe direction for block
// selection: the anticipated window is never smaller than the true one.
// tests/cs/lza_test.cpp verifies the bound exhaustively for small widths
// and randomly for datapath widths.
#pragma once

#include "cs/cs_num.hpp"

namespace csfma {

/// Worst-case underestimate of lza_estimate vs. the true leading sign run
/// (the "error of up to one bit position" of Sec. III-G).
inline constexpr int kLzaMaxError = 1;

/// Exact count of redundant leading sign bits of the signed value of x.
/// Returns width-1 for value 0 and value -1 (one digit always remains).
int leading_sign_run(const CsNum& x);

/// Anticipated (lower-bound) leading sign run of (A + B) mod 2^W.  This is
/// a behavioural model of a gate-level anticipator: it reproduces the
/// classic LZA failure signature (one position short exactly when a carry
/// ripples into the boundary bit, e.g. on cancellation) rather than the
/// gate equations themselves; see the implementation comment.
/// Guarantee: lza_estimate(x) <= leading_sign_run(x) <= lza_estimate(x) + 1.
int lza_estimate(const CsNum& x);

}  // namespace csfma
