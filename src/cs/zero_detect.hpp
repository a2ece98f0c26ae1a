// Block-granular zero detection for two's-complement carry-save numbers.
//
// Sec. III-F of the paper replaces single-bit leading-zero handling with a
// Zero Detector (ZD) that skips entire leading *blocks* of the CS adder
// result, using only local digit patterns (Fig 10):
//
//   (a) an all-0 block can be skipped,
//   (b) an all-1 block can be skipped (redundant sign extension),
//   (c) a block of 1s, then a single 2, then 0s assimilates to zero
//       (the 2 ripples out of the window) and can be skipped,
//   (d) ...but a block may only be skipped if doing so cannot flip the sign
//       of the remaining window ("overflow" hazard, Fig 10.d).
//
// Skipping k blocks is sound iff the value interpreted in the narrower
// window is unchanged:  signed(B mod 2^(W-kB)) == signed(B mod 2^W)  where
// B = (S + C) mod 2^W.  The local safeguards below are sufficient conditions
// for that equality, derived in the comments of the implementation and
// verified exhaustively/randomly by tests/cs/zero_detect_test.cpp:
//
//   rules (a) and (c): the first two digits of the succeeding block must be
//       0 (this is the paper's published safeguard);
//   rule (b): the first digit of the succeeding block must be 1, or be 2
//       with the digit after it 0 (the paper states the MSB "must remain 1";
//       these are the digit-local conditions that guarantee it).
#pragma once

#include "cs/cs_num.hpp"

namespace csfma {

/// Classification of one block's digit pattern.
enum class BlockPattern {
  AllZero,          // Fig 10.a
  AllOnes,          // Fig 10.b
  OnesTwoZeros,     // Fig 10.c  (1...1 2 0...0, exactly one 2)
  Other,
};

BlockPattern classify_block(const CsNum& block);

/// Number of leading `block_digits`-wide blocks of `x` that the ZD may skip,
/// applying the Fig 10 rules iteratively from the most significant block.
/// Never skips past `max_skip` blocks and always leaves at least one block.
int count_skippable_blocks(const CsNum& x, int block_digits, int max_skip);

/// Soundness predicate used by tests and by debug checks: skipping `k`
/// blocks preserves the signed value.
bool skip_preserves_value(const CsNum& x, int block_digits, int k);

}  // namespace csfma
