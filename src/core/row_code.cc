#include "core/row_code.h"

#include <string>

#include "common/gf256.h"

namespace radd {

namespace {

Status SizeMismatch(size_t got, size_t want) {
  return Status::InvalidArgument("row block of " + std::to_string(got) +
                                 " bytes, expected " + std::to_string(want));
}

}  // namespace

uint8_t LegCoeff(int leg, int m) { return leg == 0 ? 1 : GfQCoeff(m); }

Uid ArrayEntry(const std::vector<Uid>& array, int m) {
  const size_t pos = static_cast<size_t>(m);
  return pos < array.size() ? array[pos] : Uid();
}

Result<RowPlan> PlanDecode(int home, std::span<const int> erased,
                           const std::array<bool, 2>& usable,
                           const PlanHints& hints) {
  if (erased.size() > 1) {
    return Status::Blocked("members " + std::to_string(erased[0]) + " and " +
                           std::to_string(erased[1]) +
                           " also unavailable (triple failure)");
  }
  RowPlan plan;
  plan.home = home;
  plan.lost = erased.empty() ? -1 : erased[0];
  if (hints.force_leg >= 0) {
    if (plan.lost >= 0) {
      return Status::Blocked("forced-leg decode with a second erasure");
    }
    if (!usable[static_cast<size_t>(hints.force_leg)]) {
      return Status::Blocked("forced parity leg unusable");
    }
    plan.use[static_cast<size_t>(hints.force_leg)] = true;
  } else if (plan.lost < 0) {
    // One erasure (the home): any one leg suffices. P first — no GF
    // scaling on the decode path — unless P just failed validation.
    const size_t first = hints.avoid_p && usable[1] ? 1 : 0;
    if (usable[first]) {
      plan.use[first] = true;
    } else if (usable[1 - first]) {
      plan.use[1 - first] = true;
    } else {
      return Status::Blocked("no parity leg usable");
    }
  } else {
    // Two erasures: solving for two unknowns needs both sums.
    if (!usable[0] || !usable[1]) {
      return Status::Blocked("member " + std::to_string(plan.lost) +
                             " also unavailable without two usable legs");
    }
    plan.use = {true, true};
  }
  return plan;
}

bool ArrayNames(const std::vector<Uid>& array,
                std::span<const RowBlock> data) {
  for (const RowBlock& b : data) {
    if (ArrayEntry(array, b.member) != b.uid) return false;
  }
  return true;
}

bool CheckRow(const RowPlan& plan, const RowRead& read,
              std::span<const SiteId> data_members) {
  for (size_t leg = 0; leg < 2; ++leg) {
    if (plan.use[leg] && !ArrayNames(*read.legs[leg].uid_array, read.data)) {
      return false;
    }
  }
  if (plan.two_legs()) {
    const std::vector<Uid>& p = *read.legs[0].uid_array;
    const std::vector<Uid>& q = *read.legs[1].uid_array;
    for (SiteId dm : data_members) {
      const int m = static_cast<int>(dm);
      if (ArrayEntry(p, m) != ArrayEntry(q, m)) return false;
    }
  }
  return true;
}

Uid DecodedUid(const RowPlan& plan, const RowRead& read) {
  return ArrayEntry(
      *read.legs[static_cast<size_t>(plan.first_leg())].uid_array,
      plan.home);
}

Status DecodeRow(const RowPlan& plan, const RowRead& read, Block* out) {
  // Weight each planned leg so the second erasure cancels:
  //   P only: w = (1, 0);  Q only: w = (0, 1);  both: w = (g^lost, 1).
  // Member m then enters the weighted leg sum with c_m = w_P ^ w_Q * g^m,
  // c_lost = 0, so folding in every survivor's c_m * D_m leaves
  // c_home * D_home. P only is formula (2), a plain XOR (c_m = 1).
  std::array<uint8_t, 2> w{};
  if (plan.use[0]) w[0] = plan.lost >= 0 ? GfQCoeff(plan.lost) : 1;
  if (plan.use[1]) w[1] = 1;
  auto coeff = [&w](int m) {
    return static_cast<uint8_t>(w[0] ^ GfMul(w[1], GfQCoeff(m)));
  };
  const size_t n = out->size();
  for (size_t leg = 0; leg < 2; ++leg) {
    if (!plan.use[leg]) continue;
    const Block& sum = *read.legs[leg].data;
    if (sum.size() != n) return SizeMismatch(sum.size(), n);
    internal::GfMulAddBytes(out->data(), sum.data(), w[leg], n);
  }
  for (const RowBlock& b : read.data) {
    if (b.data->size() != n) return SizeMismatch(b.data->size(), n);
    internal::GfMulAddBytes(out->data(), b.data->data(), coeff(b.member), n);
  }
  GfScaleInPlace(out, GfInv(coeff(plan.home)));
  return Status::OK();
}

Status EncodeLeg(int leg, std::span<const RowBlock> data, Block* sum) {
  for (const RowBlock& b : data) {
    if (b.data->size() != sum->size()) {
      return SizeMismatch(b.data->size(), sum->size());
    }
    internal::GfMulAddBytes(sum->data(), b.data->data(),
                            LegCoeff(leg, b.member), sum->size());
  }
  return Status::OK();
}

std::vector<Uid> EncodeArray(std::span<const RowBlock> data, size_t width) {
  std::vector<Uid> array(width, Uid());
  for (const RowBlock& b : data) {
    array[static_cast<size_t>(b.member)] = b.uid;
  }
  return array;
}

}  // namespace radd
