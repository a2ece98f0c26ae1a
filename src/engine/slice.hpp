// Bit-sliced (SoA) batch execution layer for the simulation hot path.
//
// The scalar simulators walk one operation at a time through wide-word
// datapath values (WideUint planes).  This layer transposes a batch of up
// to 64 operations into *bit-plane* form — planes[b] is a machine word
// whose bit L holds bit b of lane L's value — so that one pass over the
// planes evaluates a datapath stage for every lane at once: a 3:2
// compressor becomes three XOR/AND word ops per bit position instead of
// per operation, the carry-save group reduction becomes a plane-form
// ripple adder, and zero-detect / leading-sign-run become word-parallel
// predicate scans.  This is the same word-level parallelism the paper's
// CS-form datapaths exploit in hardware (all 385 adder columns switch in
// one cycle), applied to the software model across the *batch* dimension;
// the wide-word vectorized-FP idiom follows "Fast Arbitrary Precision
// Floating Point on FPGA" (PAPERS.md).
//
// Contract: every kernel here is bit-exact with its scalar counterpart in
// src/cs applied lane-by-lane — the equivalence the engine's
// backend=scalar|sliced knob and the CI backend-equivalence gate enforce.
// Toggle accounting moves to ActivityProbe::observe_planes(), which is
// popcount-exact with per-lane observe() calls (see common/activity.hpp).
//
// Layout conventions:
//   * lanes are bits 0..63 of each plane word; a batch of n < 64 lanes
//     leaves lanes n..63 zero (callers mask per-lane outputs by n);
//   * plane arrays are indexed by bit position [0, width); callers own the
//     storage (stack arrays or arenas), kernels never allocate;
//   * lane-major inputs are little-endian word arrays with a fixed stride
//     (WideUint<W>::data() exposes exactly this layout).
#pragma once

#include <cstdint>

namespace csfma::slice {

/// Lanes per plane word — one operation per bit of a machine word.
inline constexpr int kLanes = 64;

/// In-place transpose of a 64x64 bit matrix held as 64 row words, where
/// element (r, c) is bit c of m[r].  Involution: applying it twice is the
/// identity; pack and unpack are the same word operation.
void transpose64(std::uint64_t m[kLanes]);

/// Pack `n` lane-major values (little-endian word arrays of `stride_words`
/// words each, lanes contiguous) into bit-plane form: on return,
/// planes[b] bit L = bit b of lanes[L*stride_words ...] for b in
/// [0, width_bits).  Lanes n..63 of every plane are zero.
void pack_words(const std::uint64_t* lanes, int stride_words, int n,
                int width_bits, std::uint64_t* planes);

/// Inverse of pack_words: scatter plane bits back to `n` lane-major word
/// arrays.  Words beyond ceil(width_bits/64) of each lane are untouched.
void unpack_words(const std::uint64_t* planes, int width_bits, int n,
                  std::uint64_t* lanes, int stride_words);

// ---- bit-parallel kernels ------------------------------------------------
//
// Each kernel evaluates its scalar namesake for all 64 lanes per word op.
// Input and output plane arrays may not alias unless noted.

/// 3:2 compression within a `width`-bit window (cs/cs_num.hpp compress3):
/// out_s = a ^ b ^ c per plane, out_c = majority shifted up one bit
/// position with the MSB majority dropped (mod-2^width semantics).
/// out_s may alias a; out_c may not alias any input.
void compress3(int width, const std::uint64_t* a, const std::uint64_t* b,
               const std::uint64_t* c, std::uint64_t* out_s,
               std::uint64_t* out_c);

/// The DSP-tile CSA tree (cs/csa_tree.hpp reduce_tile_products) for all
/// lanes: row r is a 64-bit tile product, its planes at
/// tiles[r * 64, r * 64 + 64), placed at bit lo[r] of the `width`-bit
/// window with sign fill above.  The n >= 2 rows are built in `scratch`
/// (n * width words) and reduce there with the scalar tree's 3:2
/// schedule into out_s/out_c.
void reduce_tiles(int width, int n, const int* lo, const std::uint64_t* tiles,
                  std::uint64_t* scratch, std::uint64_t* out_s,
                  std::uint64_t* out_c);

/// Partial carry-save group reduction (cs/pcs.hpp carry_reduce): per
/// `group`-bit segment, assimilate sum+carry planes with a plane-form
/// ripple adder; the segment carry-out lands at the base of the next
/// segment in out_c (dropped past `width`).  No aliasing.
void carry_reduce(int width, int group, const std::uint64_t* s,
                  const std::uint64_t* c, std::uint64_t* out_s,
                  std::uint64_t* out_c);

/// Full-width assimilation: out[b] holds bit b of (S + C) mod 2^width per
/// lane — the plane form of CsNum::to_binary().  No aliasing.
void assimilate(int width, const std::uint64_t* s, const std::uint64_t* c,
                std::uint64_t* out);

/// Zero-detect block skipping (cs/zero_detect.hpp count_skippable_blocks)
/// for all lanes: alive_after[k] bit L is set iff lane L skips more than k
/// leading `block`-digit blocks, for k in [0, max_skip) — i.e. lane L's
/// skip count is the number of set alive_after bits.  Requires
/// 2 <= block <= 63, width % block == 0 and max_skip <= width/block - 1
/// (same preconditions as the scalar routine, which CSFMA_CHECKs them).
void count_skippable_blocks(int width, int block, int max_skip,
                            const std::uint64_t* s, const std::uint64_t* c,
                            std::uint64_t* alive_after);

/// Exact leading-sign-run (cs/lza.hpp leading_sign_run) of assimilated
/// binary planes: run[L] = number of bits below the MSB equal to lane L's
/// sign bit, capped at width-1.  Only lanes [0, n) are written.
void leading_sign_run(int width, const std::uint64_t* bin, int n,
                      std::uint16_t* run);

}  // namespace csfma::slice
