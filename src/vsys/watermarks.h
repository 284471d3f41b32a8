// SST-style per-member watermark table (Derecho idiom).
//
// Inside an installed view each member publishes two monotone counters —
// `delivered` (its contiguously-delivered prefix of the view's total
// order) and `safe` (the prefix it has emitted safe for). Stability is the
// minimum of the delivered column over the view's members; a message is
// safe exactly when stability reaches it, which is the paper's stability
// rule (a safe indication implies receipt at every member of the view).
//
// The table replaces the per-heartbeat O(members) stability scan with an
// incrementally maintained minimum: alongside each column's cached min we
// keep the count of members sitting at it. Raising a row above the min
// decrements the count; only when the count hits zero (the last binding
// row moved) does a rescan run — so the common no-progress heartbeat costs
// O(1) and the minimum still advances exactly when the old scan would have
// advanced it.
//
// The table is transport-agnostic: rows are raised from watermarks
// piggybacked on DATA/SEQ frames, from the WATERMARK frame a member pushes
// when a delivery advances its row (so a lone message does not wait for a
// heartbeat), and from heartbeats; reconfiguration resets it — the view
// agreement protocol (PROPOSE/FLUSH_ACK/INSTALL) is untouched.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace dvs::vsys {

class WatermarkTable {
 public:
  /// Sizes the dense ProcessId-indexed row array (call once, at node
  /// construction, with the universe's slot count).
  void resize(std::size_t slots) {
    delivered_.assign(slots, 0);
    safe_.assign(slots, 0);
    member_.assign(slots, 0);
  }

  /// Installs the member set of a fresh view and zeroes its rows. Member
  /// indices must be valid row indices.
  void reset(const std::vector<std::size_t>& member_rows) {
    std::fill(member_.begin(), member_.end(), std::uint8_t{0});
    members_ = member_rows;
    for (std::size_t r : members_) {
      member_[r] = 1;
      delivered_[r] = 0;
      safe_[r] = 0;
    }
    min_delivered_ = 0;
    at_min_delivered_ = members_.size();
    min_safe_ = 0;
    at_min_safe_ = members_.size();
  }

  /// Raises `row`'s delivered watermark to max(current, v). Returns true
  /// iff the column minimum advanced (the caller's cue to emit safes).
  bool raise_delivered(std::size_t row, std::uint64_t v) {
    return raise(delivered_, row, v, min_delivered_, at_min_delivered_);
  }

  /// Raises `row`'s safe watermark to max(current, v). Returns true iff
  /// the column minimum advanced.
  bool raise_safe(std::size_t row, std::uint64_t v) {
    return raise(safe_, row, v, min_safe_, at_min_safe_);
  }

  [[nodiscard]] std::uint64_t delivered(std::size_t row) const {
    return delivered_[row];
  }
  [[nodiscard]] std::uint64_t safe(std::size_t row) const {
    return safe_[row];
  }
  /// min over the current members' delivered rows == the view's stable
  /// prefix (0 when the member set is empty).
  [[nodiscard]] std::uint64_t min_delivered() const { return min_delivered_; }
  [[nodiscard]] std::uint64_t min_safe() const { return min_safe_; }
  [[nodiscard]] std::size_t members() const { return members_.size(); }

 private:
  bool raise(std::vector<std::uint64_t>& col, std::size_t row,
             std::uint64_t v, std::uint64_t& min, std::size_t& at_min) {
    // Non-member rows are ignored: a corrupted-but-decodable frame must
    // not be able to disturb the members' minimum.
    if (row >= member_.size() || member_[row] == 0) return false;
    std::uint64_t& cell = col[row];
    if (v <= cell) return false;
    const bool was_binding = cell == min;
    cell = v;
    if (!was_binding || members_.empty()) return false;
    if (--at_min > 0) return false;
    // The last row at the old minimum moved: rescan (rare — amortized over
    // the raises that drained the count).
    min = col[members_.front()];
    for (std::size_t r : members_) min = std::min(min, col[r]);
    at_min = 0;
    for (std::size_t r : members_) at_min += col[r] == min;
    return true;
  }

  std::vector<std::uint64_t> delivered_;
  std::vector<std::uint64_t> safe_;
  std::vector<std::uint8_t> member_;  // membership flag per row
  std::vector<std::size_t> members_;  // row indices of the current view
  std::uint64_t min_delivered_ = 0;
  std::size_t at_min_delivered_ = 0;
  std::uint64_t min_safe_ = 0;
  std::size_t at_min_safe_ = 0;
};

}  // namespace dvs::vsys
