#include "fma/pcs_config.hpp"

#include "common/check.hpp"
#include "cs/cs_num.hpp"

namespace csfma {

void PcsConfig::validate() const {
  CSFMA_CHECK_MSG(block >= 8 && block <= 62, "block size out of range");
  CSFMA_CHECK_MSG(group >= 2 && group <= 63, "carry spacing out of range");
  CSFMA_CHECK_MSG(block % group == 0, "carry spacing must divide the block");
  CSFMA_CHECK_MSG(adder_width() <= kCsWordBits,
                  "adder window exceeds the CsWord workspace");
}

}  // namespace csfma
