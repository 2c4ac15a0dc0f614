// Compiled expression programs.
//
// Specification ASTs are compiled once per spec into flat postfix programs
// whose variable references are *slots* (small dense indices).  A ground
// action then carries only a slot->VarId binding vector.  Evaluation runs on
// a fixed, uninitialised stack whose depth compile() bounds, so it neither
// allocates nor handles strings; the optimistic-map replay built on it
// (model/interval_replay.hpp) allocates only while its reusable maps first
// grow to the problem's size, and keeps prune reasons as static text.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "expr/ast.hpp"
#include "support/interval.hpp"

namespace sekitei::expr {

enum class Op : std::uint8_t {
  PushConst,  // arg = index into consts
  PushVar,    // arg = slot index
  Neg,
  Add, Sub, Mul, Div,
  Min, Max,
  Table,      // arg = index into tables
};

struct Instr {
  Op op;
  std::uint32_t arg = 0;
};

/// Resolver mapping a role reference to a slot index.  Raises on unknown
/// roles.  Called at compile time only.
using SlotResolver = std::function<std::uint32_t(const RoleRef&)>;

class Program {
 public:
  /// Evaluation stack size.  compile() rejects deeper formulae, so eval()
  /// never writes past it.
  static constexpr std::uint32_t kMaxDepth = 64;

  Program() = default;

  /// Compiles `ast`, resolving role references through `resolve`.  Raises
  /// sekitei::Error naming the formula when it needs more than kMaxDepth
  /// stack cells (e.g. a right-nested sum of 65 terms).
  static Program compile(const Node& ast, const SlotResolver& resolve);

  /// Evaluates with concrete slot values.
  [[nodiscard]] double eval(std::span<const double> slots) const { return run(slots); }

  /// Evaluates over intervals (exact for monotone expressions, conservative
  /// otherwise).  This is the engine behind optimistic resource maps.
  [[nodiscard]] Interval eval_interval(std::span<const Interval> slots) const {
    return run(slots);
  }

  /// True when the program reads no variables (a constant).
  [[nodiscard]] bool is_constant() const;

  /// Highest slot index used + 1 (0 when constant).
  [[nodiscard]] std::uint32_t slot_count() const { return slot_count_; }

  /// Slots this program reads.
  [[nodiscard]] std::vector<std::uint32_t> used_slots() const;

  /// If the program is exactly `PushVar s`, returns s, else UINT32_MAX.
  [[nodiscard]] std::uint32_t single_var_slot() const;

  [[nodiscard]] const std::vector<Instr>& instrs() const { return instrs_; }

 private:
  /// The one interpreter behind eval() and eval_interval(), over the value
  /// domain T; program.cpp instantiates it for double and Interval.
  template <class T>
  [[nodiscard]] T run(std::span<const T> slots) const;

  std::vector<Instr> instrs_;
  std::vector<double> consts_;
  std::vector<TableData> tables_;
  std::uint32_t slot_count_ = 0;
  std::uint32_t max_depth_ = 0;
};

/// Compiled condition: lhs <cmp> rhs over a shared slot space.
struct CompiledCondition {
  Program lhs;
  CmpOp op = CmpOp::Ge;
  Program rhs;
  std::string source;  // original text for diagnostics

  /// Does the condition hold for concrete values?
  [[nodiscard]] bool holds(std::span<const double> slots) const;

  /// Can the condition hold for *some* choice within the intervals?  Used by
  /// the optimistic replay: a condition that cannot hold prunes the branch.
  [[nodiscard]] bool satisfiable(std::span<const Interval> slots) const;
  /// Same, over already-evaluated sides l = lhs(slots), r = rhs(slots).
  [[nodiscard]] bool satisfiable(Interval l, Interval r) const;

  /// Does the condition hold for *every* choice within the intervals?  Used
  /// by the greedy (original-Sekitei) mode, which must be robust against the
  /// worst case.
  [[nodiscard]] bool certain(std::span<const Interval> slots) const;
  /// Same, over already-evaluated sides l = lhs(slots), r = rhs(slots).
  [[nodiscard]] bool certain(Interval l, Interval r) const;
};

/// Compiled effect: slot `target` <op>= value.
struct CompiledEffect {
  std::uint32_t target = 0;
  AssignOp op = AssignOp::Set;
  Program value;
  std::string source;

  void apply(std::span<double> slots) const;
  void apply_interval(std::span<Interval> slots) const;

 private:
  /// The one implementation behind apply() and apply_interval().
  template <class T>
  void run(std::span<T> slots) const;
};

}  // namespace sekitei::expr
