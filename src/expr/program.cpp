#include "expr/program.hpp"

#include <algorithm>
#include <string>

#include "support/error.hpp"

namespace sekitei::expr {

Program Program::compile(const Node& ast, const SlotResolver& resolve) {
  Program p;
  std::uint32_t max_slot = 0;
  // Explicit-stack-free recursive compile; spec expressions are tiny.  The
  // running stack depth is tracked alongside so eval() can trust its bound.
  struct Rec {
    const SlotResolver& resolve;
    Program& p;
    std::uint32_t& max_slot;
    std::uint32_t depth = 0;
    void push(Instr ins) {
      p.instrs_.push_back(ins);
      p.max_depth_ = std::max(p.max_depth_, ++depth);
    }
    void go(const Node& n) {
      switch (n.kind) {
        case NodeKind::Const:
          push({Op::PushConst, static_cast<std::uint32_t>(p.consts_.size())});
          p.consts_.push_back(n.value);
          break;
        case NodeKind::Var: {
          const std::uint32_t slot = resolve(n.ref);
          push({Op::PushVar, slot});
          max_slot = std::max(max_slot, slot + 1);
          break;
        }
        case NodeKind::Neg:
          go(*n.a);
          p.instrs_.push_back({Op::Neg, 0});
          break;
        case NodeKind::Add:
        case NodeKind::Sub:
        case NodeKind::Mul:
        case NodeKind::Div:
        case NodeKind::Min:
        case NodeKind::Max: {
          go(*n.a);
          go(*n.b);
          Op op = Op::Add;
          switch (n.kind) {
            case NodeKind::Add: op = Op::Add; break;
            case NodeKind::Sub: op = Op::Sub; break;
            case NodeKind::Mul: op = Op::Mul; break;
            case NodeKind::Div: op = Op::Div; break;
            case NodeKind::Min: op = Op::Min; break;
            case NodeKind::Max: op = Op::Max; break;
            default: break;
          }
          p.instrs_.push_back({op, 0});
          --depth;
          break;
        }
        case NodeKind::Table:
          go(*n.a);
          p.instrs_.push_back({Op::Table, static_cast<std::uint32_t>(p.tables_.size())});
          p.tables_.push_back(n.table);
          break;
      }
    }
  } rec{resolve, p, max_slot};
  rec.go(ast);
  if (p.max_depth_ > kMaxDepth) {
    raise("formula needs an evaluation stack of " + std::to_string(p.max_depth_) +
          " cells, more than the " + std::to_string(kMaxDepth) + " supported: " + ast.str());
  }
  p.slot_count_ = max_slot;
  return p;
}

namespace {

// The value domains the one interpreter below is instantiated over (one
// operation set per domain): concrete values for the simulator and interval
// abstractions for the optimistic resource maps.  Each supplies constant
// lifting, min/max, the range of a table lookup and its Program entry point;
// the arithmetic operators come from the value type itself.
template <class T>
struct Domain;

template <>
struct Domain<double> {
  static double point(double c) { return c; }
  static double min(double a, double b) { return std::min(a, b); }
  static double max(double a, double b) { return std::max(a, b); }
  static double table(const TableData& t, double x) { return t.eval(x); }
  static double eval(const Program& p, std::span<const double> s) { return p.eval(s); }
};

template <>
struct Domain<Interval> {
  static Interval point(double c) { return Interval::point(c); }
  static Interval min(Interval a, Interval b) { return imin(a, b); }
  static Interval max(Interval a, Interval b) { return imax(a, b); }
  // Exact range of a piecewise-linear function over an interval: the
  // extrema lie at clamped endpoints or interior breakpoints.
  static Interval table(const TableData& t, Interval in) {
    if (in.is_empty()) return in;  // propagate empty unchanged
    double lo = std::min(t.eval(in.lo), t.eval(in.hi == kInf ? t.xs.back() : in.hi));
    double hi = std::max(t.eval(in.lo), t.eval(in.hi == kInf ? t.xs.back() : in.hi));
    for (std::size_t i = 0; i < t.xs.size(); ++i) {
      if (t.xs[i] > in.lo && t.xs[i] < in.hi) {
        lo = std::min(lo, t.ys[i]);
        hi = std::max(hi, t.ys[i]);
      }
    }
    return {lo, hi};
  }
  static Interval eval(const Program& p, std::span<const Interval> s) {
    return p.eval_interval(s);
  }
};

}  // namespace

template <class T>
T Program::run(std::span<const T> slots) const {
  using D = Domain<T>;
  // compile() bounded the depth, so one check covers every push below.
  SEKITEI_ASSERT(max_depth_ <= kMaxDepth);
  // Uninitialised cells: a default-constructed Interval stack would write
  // all kMaxDepth cells on every call, more work than a typical formula.
  union Stack {
    Stack() {}
    T cell[kMaxDepth];
  } s;
  T* const stack = s.cell;
  std::size_t sp = 0;
  for (const Instr& ins : instrs_) {
    switch (ins.op) {
      case Op::PushConst: stack[sp++] = D::point(consts_[ins.arg]); break;
      case Op::PushVar: stack[sp++] = slots[ins.arg]; break;
      case Op::Neg: stack[sp - 1] = -stack[sp - 1]; break;
      case Op::Add: stack[sp - 2] = stack[sp - 2] + stack[sp - 1]; --sp; break;
      case Op::Sub: stack[sp - 2] = stack[sp - 2] - stack[sp - 1]; --sp; break;
      case Op::Mul: stack[sp - 2] = stack[sp - 2] * stack[sp - 1]; --sp; break;
      case Op::Div: stack[sp - 2] = stack[sp - 2] / stack[sp - 1]; --sp; break;
      case Op::Min: stack[sp - 2] = D::min(stack[sp - 2], stack[sp - 1]); --sp; break;
      case Op::Max: stack[sp - 2] = D::max(stack[sp - 2], stack[sp - 1]); --sp; break;
      case Op::Table: stack[sp - 1] = D::table(tables_[ins.arg], stack[sp - 1]); break;
    }
  }
  SEKITEI_ASSERT(sp == 1);
  return stack[0];
}

template double Program::run(std::span<const double>) const;
template Interval Program::run(std::span<const Interval>) const;

bool Program::is_constant() const {
  return std::none_of(instrs_.begin(), instrs_.end(),
                      [](const Instr& i) { return i.op == Op::PushVar; });
}

std::vector<std::uint32_t> Program::used_slots() const {
  std::vector<std::uint32_t> out;
  for (const Instr& i : instrs_) {
    if (i.op == Op::PushVar) {
      if (std::find(out.begin(), out.end(), i.arg) == out.end()) out.push_back(i.arg);
    }
  }
  return out;
}

std::uint32_t Program::single_var_slot() const {
  if (instrs_.size() == 1 && instrs_[0].op == Op::PushVar) return instrs_[0].arg;
  return UINT32_MAX;
}

bool CompiledCondition::holds(std::span<const double> slots) const {
  const double l = lhs.eval(slots);
  const double r = rhs.eval(slots);
  // A small tolerance keeps profiled equality constraints (T*3 == I*7) from
  // failing on floating-point dust.
  constexpr double kEps = 1e-9;
  switch (op) {
    case CmpOp::Ge: return l >= r - kEps;
    case CmpOp::Le: return l <= r + kEps;
    case CmpOp::Gt: return l > r - kEps;
    case CmpOp::Lt: return l < r + kEps;
    case CmpOp::Eq: return std::abs(l - r) <= kEps * std::max({1.0, std::abs(l), std::abs(r)});
    case CmpOp::Ne: return std::abs(l - r) > kEps;
  }
  return false;
}

bool CompiledCondition::satisfiable(std::span<const Interval> slots) const {
  return satisfiable(lhs.eval_interval(slots), rhs.eval_interval(slots));
}

bool CompiledCondition::satisfiable(Interval l, Interval r) const {
  if (l.is_empty() || r.is_empty()) return false;
  switch (op) {
    case CmpOp::Ge:
      // sup(l) must reach inf(r) attainably: a level [0,90) can never meet a
      // ">= 90" demand (the load-bearing half-open semantics).
      return l.hi > r.lo || (l.hi == r.lo && !l.hi_open);
    case CmpOp::Gt:
      return l.hi > r.lo;
    case CmpOp::Le:
      return l.lo < r.hi || (l.lo == r.hi && !r.hi_open);
    case CmpOp::Lt:
      return l.lo < r.hi;
    case CmpOp::Eq:
      return !intersect(l, r).is_empty();
    case CmpOp::Ne:
      return !(l.is_point() && r.is_point() && l.lo == r.lo);
  }
  return false;
}

bool CompiledCondition::certain(std::span<const Interval> slots) const {
  return certain(lhs.eval_interval(slots), rhs.eval_interval(slots));
}

bool CompiledCondition::certain(Interval l, Interval r) const {
  if (l.is_empty() || r.is_empty()) return false;
  switch (op) {
    case CmpOp::Ge:
      return l.lo >= r.hi;
    case CmpOp::Gt:
      return l.lo > r.hi || (l.lo == r.hi && r.hi_open);
    case CmpOp::Le:
      return l.hi <= r.lo;
    case CmpOp::Lt:
      return l.hi < r.lo || (l.hi == r.lo && l.hi_open);
    case CmpOp::Eq:
      return l.is_point() && r.is_point() && l.lo == r.lo;
    case CmpOp::Ne:
      return intersect(l, r).is_empty();
  }
  return false;
}

template <class T>
void CompiledEffect::run(std::span<T> slots) const {
  const T v = Domain<T>::eval(value, slots);
  switch (op) {
    case AssignOp::Set: slots[target] = v; break;
    case AssignOp::Add: slots[target] = slots[target] + v; break;
    case AssignOp::Sub: slots[target] = slots[target] - v; break;
  }
}

void CompiledEffect::apply(std::span<double> slots) const { run(slots); }

void CompiledEffect::apply_interval(std::span<Interval> slots) const { run(slots); }

}  // namespace sekitei::expr
