// The row codec: the paper's formula (2) and its §3.3 UID check, written
// once for both RADD engines (DESIGN.md §14).
//
// A row holds G data blocks and one parity leg per redundancy: P, the
// paper's XOR, and under the P+Q scheme Q = sum g^m * D_m over GF(256)
// (common/gf256.h). Each leg carries a UID array naming, per data member,
// the write its sum includes. The paper's single parity is the one-leg
// case of the same code.
//
// The codec works on member indices, Blocks and Uids only: it reads no
// disk and sends no message. The synchronous RaddGroup (core/radd.h) and
// the protocol node's reconstruction flow (core/node.h) gather a row's
// blocks their own way and hand them here to
//   * plan   — which legs decode `home`, given the erased data members and
//              which legs are usable;
//   * check  — the §3.3 rule over the planned legs;
//   * decode — P only (formula (2)), Q only, or the two-erasure solve;
//   * encode — a leg's sum and UID array from the data values (parity
//              rebuild, scrub, invariant audit).
// Blocks are passed by pointer: the codec never copies a source.

#ifndef RADD_CORE_ROW_CODE_H_
#define RADD_CORE_ROW_CODE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/block.h"
#include "common/status.h"
#include "common/uid.h"

namespace radd {

/// Coefficient of data member `m` in parity leg `leg`: 1 in P (leg 0),
/// g^m in Q (leg 1).
uint8_t LegCoeff(int leg, int m);

/// `array`'s entry for member `m`; the invalid UID past its end.
Uid ArrayEntry(std::span<const Uid> array, int m);

/// One data block of a row: the member it belongs to, the UID the legs'
/// arrays should name for it, and its value.
struct RowBlock {
  int member = -1;
  Uid uid;
  const Block* data = nullptr;
};

/// One parity leg as read: its sum and its UID array.
struct LegBlock {
  const Block* data = nullptr;
  const std::vector<Uid>* uid_array = nullptr;
};

/// The blocks a decode reads: the surviving data blocks (a spare standing
/// in for the member it shadows counts as that member's block) and the
/// planned legs, indexed by leg.
struct RowRead {
  std::vector<RowBlock> data;
  std::array<LegBlock, 2> legs{};
};

/// Which legs decode `home`.
struct RowPlan {
  int home = -1;
  /// A second erased data member, or -1.
  int lost = -1;
  /// use[leg]: the leg takes part.
  std::array<bool, 2> use{};

  bool two_legs() const { return use[0] && use[1]; }
  /// The first planned leg: its array names the decoded value.
  int first_leg() const { return use[0] ? 0 : 1; }
};

/// Caller-side constraints on a plan.
struct PlanHints {
  /// Decode through this leg alone (0 = P, 1 = Q); -1 lets the planner
  /// choose. A second erasure then makes the plan Blocked.
  int force_leg = -1;
  /// A P-only decode failed §3.3 validation: P may lag a member Q holds
  /// (a torn pair), so prefer Q.
  bool avoid_p = false;
};

/// Plans the decode of `home` with the data members `erased` (home
/// excluded) lost and `usable[leg]` telling which legs may serve (entries
/// past the row's leg count must be false). One erasure takes one usable
/// leg, P first; a second takes both. Blocked when no plan exists.
Result<RowPlan> PlanDecode(int home, std::span<const int> erased,
                           const std::array<bool, 2>& usable,
                           const PlanHints& hints = {});

/// True when `array` names exactly each block's UID at its member.
bool ArrayNames(std::span<const Uid> array,
                std::span<const RowBlock> data);

/// §3.3 over the plan: every source's UID equals each planned leg's entry
/// for its member, and with two legs the arrays also agree on every member
/// of `data_members` — the erased ones too, which is what catches one leg
/// being one write behind on exactly the member being decoded.
bool CheckRow(const RowPlan& plan, const RowRead& read,
              std::span<const SiteId> data_members);

/// The planned legs' name for the decoded value: the first planned leg's
/// entry for the home.
Uid DecodedUid(const RowPlan& plan, const RowRead& read);

/// Decodes plan.home into `out`, which must be zeroed and block-sized.
/// Every source and planned leg must have `out`'s size; any other size is
/// InvalidArgument and leaves `out` unspecified.
Status DecodeRow(const RowPlan& plan, const RowRead& read, Block* out);

/// Leg `leg`'s sum over the row's data blocks, into `sum` (zeroed and
/// block-sized). A block of another size is InvalidArgument.
Status EncodeLeg(int leg, std::span<const RowBlock> data, Block* sum);

/// The UID array a leg encoded from `data` carries: `width` entries, each
/// block's UID at its member, the invalid UID elsewhere.
std::vector<Uid> EncodeArray(std::span<const RowBlock> data, size_t width);

}  // namespace radd

#endif  // RADD_CORE_ROW_CODE_H_
