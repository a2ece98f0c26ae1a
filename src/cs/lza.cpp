#include "cs/lza.hpp"

#include "common/check.hpp"

namespace csfma {

int leading_sign_run(const CsNum& x) {
  const int w = x.width();
  const CsWord v = x.to_binary();
  const bool sign = v.bit(w - 1);
  int run = 0;
  for (int i = w - 2; i >= 0 && v.bit(i) == sign; --i) ++run;
  // `run` bits below the MSB equal the sign, so the window can shrink by
  // `run` bits; cap at w-1 (one digit always remains).
  return run > w - 1 ? w - 1 : run;
}

int lza_estimate(const CsNum& x) {
  // Behavioural model of a Schmookler/Nowka-class leading-zero anticipator.
  //
  // A gate-level LZA examines (propagate, generate, kill) patterns without
  // waiting for the carry chain; its classic failure mode is firing one
  // position *below* the true sign-run boundary exactly when an incoming
  // carry flips the anticipated boundary bit.  We model that behaviour
  // directly: compute the true boundary, then subtract one position iff the
  // assimilation carry arrives at the boundary — a deterministic function
  // of the operand planes with the same error signature (0 or 1 bit, and
  // the same inputs that trip real anticipators, e.g. full cancellation,
  // trip this one).  The bound est <= run <= est + kLzaMaxError is what the
  // FCS-FMA's widened blocks absorb (Sec. III-G).
  const int w = x.width();
  const CsWord a = x.sum(), b = x.carry();
  const CsWord s = (a + b).truncated(w);
  // Carry-in vector of the assimilation: carry_i = s_i ^ a_i ^ b_i.
  const CsWord carry_in = (s ^ a ^ b).truncated(w);

  const bool sign = s.bit(w - 1);
  int boundary = -1;  // highest position whose bit differs from the sign
  for (int i = w - 2; i >= 0; --i) {
    if (s.bit(i) != sign) {
      boundary = i;
      break;
    }
  }
  const int run = boundary < 0 ? w - 1 : (w - 2) - boundary;
  const bool carry_hits_boundary =
      boundary < 0 ? carry_in.bit(w - 1) : carry_in.bit(boundary);
  const int est = run - (carry_hits_boundary ? 1 : 0);
  return est < 0 ? 0 : est;
}

}  // namespace csfma
