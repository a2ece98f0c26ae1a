// Carry-save adder (CSA) reduction trees and the partial-product multiplier.
//
// The paper's FMA datapaths multiply the IEEE-format B_M (53b incl. leading 1)
// with the carry-save-format C_M (110b PCS / 87c FCS) by reducing the partial
// product rows with a Wallace-style tree of 3:2 compressors (Sec. III-C/D).
// Because the *number of rows* equals the width of the smaller operand B_M,
// widening C does not deepen the tree — the core observation behind the
// paper's "only widen the critical operand" design.  reduce_rows() implements
// the tree, reporting its height and compressor count for the fpga/ timing
// and area models, and the exact planes for the energy model.
//
// The tree is evaluated one 64-bit word column at a time: the 3:2 schedule
// depends only on the row count, so each column runs the whole schedule on
// one word per row, passing one carry bit per compressor to the next
// column.  The planes are those of the row-at-a-time tree, bit for bit.
// The multipliers never build a full-width row: they generate each row's
// word from its partial product as the column needs it.  Stored rows
// (reduce_rows) are only read.
#pragma once

#include <cstdint>
#include <vector>

#include "cs/cs_num.hpp"

namespace csfma {

struct CsaTreeStats {
  int rows = 0;         // partial products entering the tree
  int levels = 0;       // 3:2 compressor levels on the critical path
  int compressors = 0;  // total full-adder (3:2) columns, summed over levels
};

/// Reduce an arbitrary set of W-bit rows to a single CS pair using layers of
/// 3:2 compressors (Wallace reduction).  Zero or one rows are handled
/// degenerately.  All arithmetic is mod 2^width (two's complement window).
CsNum reduce_rows(int width, const std::vector<CsWord>& rows,
                  CsaTreeStats* stats = nullptr);

/// Array form of reduce_rows for the hot paths: reduces the `n` rows
/// (which are read, not modified) and returns the same CS pair the vector
/// overload produces.  Rows must already be truncated to `width` (checked);
/// up to 64 rows need no heap allocation.
CsNum reduce_rows_inplace(int width, const CsWord* rows, int n,
                          CsaTreeStats* stats = nullptr);

/// Number of 3:2 levels a Wallace tree needs for n inputs (0 for n <= 2).
int csa_levels_for_rows(int n);

/// The geometry of a Wallace tree over `rows` rows of `width` bits: it
/// depends on the row count only, never on the data.
CsaTreeStats csa_tree_stats(int rows, int width);

/// Signed × unsigned partial-product multiplier:
///   multiplicand — a CS number (two planes, two's complement) of width wc;
///   multiplier   — a plain binary unsigned word of width wb (the IEEE
///                  significand of B, always positive);
/// result — CS product of width `out_width` (callers pass wc + wb).
///
/// The multiplicand is assimilated first (the DSP pre-adder step of
/// Sec. III-H); one partial-product row is generated per multiplier bit, so
/// the tree depth depends only on the multiplier width — exactly the
/// paper's "only widen the critical operand" trade-off (Sec. III-D).
CsNum multiply_cs_by_binary(const CsNum& multiplicand, const CsWord& multiplier,
                            int multiplier_width, int out_width,
                            CsaTreeStats* stats = nullptr);

/// DSP-tiled multiplier, the form the paper's units actually map to the
/// Xilinx DSP48E blocks (Sec. IV):  the signed multiplicand is decomposed
/// into `cand_chunk`-bit slices (top slice signed), the unsigned multiplier
/// into `mult_chunk`-bit slices, and each slice pair becomes one DSP tile
/// whose binary partial product enters the CSA tree as one row, placed at
/// `offset` within the `out_width` window.  Row count =
/// ceil(wc/cand_chunk) * ceil(wb/mult_chunk) — e.g. the PCS-FMA's
/// 110x53 multiplier with 17/24-bit chunks yields the paper's 21 DSPs.
///
/// The multiplicand planes are assimilated before slicing (hardware: the
/// DSP pre-adders / PCS group adders; DESIGN.md substitution note).  The
/// columns below `offset` are all zero and are not evaluated.
/// multiply_dsp_tiled is dsp_tile_products followed by
/// reduce_tile_products; callers that keep the tile products per operation
/// (the bit-sliced PCS datapath) call the two halves.
CsNum multiply_dsp_tiled(const CsNum& multiplicand, const CsWord& multiplier,
                         int multiplier_width, int cand_chunk, int mult_chunk,
                         int out_width, int offset,
                         CsaTreeStats* stats = nullptr);

/// The DSP tiling of a signed `cand_width`-bit multiplicand by an unsigned
/// `mult_width`-bit multiplier.  Tile row r pairs candidate chunk
/// r / mult_tiles() with multiplier chunk r % mult_tiles().
struct DspTiling {
  int cand_width, mult_width, cand_chunk, mult_chunk;

  int cand_tiles() const { return (cand_width + cand_chunk - 1) / cand_chunk; }
  int mult_tiles() const { return (mult_width + mult_chunk - 1) / mult_chunk; }
  int rows() const { return cand_tiles() * mult_tiles(); }
  /// Bit weight of tile row r's product.
  int weight(int r) const {
    return (r / mult_tiles()) * cand_chunk + (r % mult_tiles()) * mult_chunk;
  }
};

/// The exact tile products prod[0..rows()): the multiplicand's
/// two's-complement image `cand_bits` (cand_width bits, top chunk signed)
/// sliced against `multiplier` (mult_width bits, unsigned).
void dsp_tile_products(const DspTiling& t, const CsWord& cand_bits,
                       std::uint64_t multiplier, std::int64_t* prod);

/// The CSA tree over tile products: row r is prod[r] placed at bit
/// offset + t.weight(r) with sign fill above, within `out_width`.
CsNum reduce_tile_products(const DspTiling& t, const std::int64_t* prod,
                           int out_width, int offset,
                           CsaTreeStats* stats = nullptr);

}  // namespace csfma
