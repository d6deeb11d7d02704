#include "ebpf/verifier.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <sstream>

namespace srv6bpf::ebpf {
namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();
// Pointer offsets beyond this are rejected outright; prevents arithmetic
// overflow games (the kernel uses a similar MAX_PACKET_OFF / 1<<29 clamp).
constexpr std::int64_t kMaxPtrOff = 1 << 20;
// Largest helper memory argument we accept.
constexpr std::uint64_t kMaxMemArg = 8192;

enum class RT : std::uint8_t {
  kNotInit,
  kScalar,
  kCtxPtr,
  kPktPtr,
  kPktEnd,
  kStackPtr,
  kMapValue,
  kMapValueOrNull,
  kConstMapPtr,
};

const char* rt_name(RT t) {
  switch (t) {
    case RT::kNotInit: return "uninit";
    case RT::kScalar: return "scalar";
    case RT::kCtxPtr: return "ctx";
    case RT::kPktPtr: return "pkt";
    case RT::kPktEnd: return "pkt_end";
    case RT::kStackPtr: return "stack";
    case RT::kMapValue: return "map_value";
    case RT::kMapValueOrNull: return "map_value_or_null";
    case RT::kConstMapPtr: return "map_ptr";
  }
  return "?";
}

struct Reg {
  RT type = RT::kNotInit;
  // Scalar value bounds (unsigned).
  std::uint64_t umin = 0;
  std::uint64_t umax = kU64Max;
  // Pointer offset range from the base object.
  std::int64_t off_min = 0;
  std::int64_t off_max = 0;
  // Map identity for kConstMapPtr / kMapValue(_OrNull).
  std::uint32_t map_id = 0;
  // Linkage id: registers copied from the same helper return share it, so a
  // null-check refines all aliases at once.
  std::uint32_t id = 0;

  bool operator==(const Reg&) const = default;

  bool is_const() const noexcept {
    return type == RT::kScalar && umin == umax;
  }
  bool is_pointer() const noexcept {
    return type != RT::kScalar && type != RT::kNotInit;
  }
  static Reg scalar_unknown() { return {.type = RT::kScalar}; }
  static Reg scalar_const(std::uint64_t v) {
    return {.type = RT::kScalar, .umin = v, .umax = v};
  }
  static Reg scalar_range(std::uint64_t lo, std::uint64_t hi) {
    return {.type = RT::kScalar, .umin = lo, .umax = hi};
  }
};

struct StackSlot {
  std::uint8_t written = 0;  // bit i set => byte i of the slot initialised
  bool spilled = false;
  Reg spill;

  bool operator==(const StackSlot&) const = default;
};

constexpr StackSlot kUnwritten{};
constexpr int kStackSlots = kStackSize / 8;

struct State {
  std::uint32_t pc = 0;
  std::array<Reg, kNumRegs> regs{};
  // 8-byte slots from the frame top down (stack[0] holds fp-8..fp-1), only
  // as deep as this path has written; a missing slot is unwritten.
  std::vector<StackSlot> stack;
  // Bytes from packet start proven readable on this path.
  std::uint32_t pkt_range = 0;
  std::uint32_t next_id = 1;

  // The slot holding frame byte `pos` (0 = fp-512, 511 = fp-1).
  const StackSlot& read_slot(std::int64_t pos) const {
    const std::size_t i = kStackSlots - 1 - pos / 8;
    return i < stack.size() ? stack[i] : kUnwritten;
  }
  StackSlot& write_slot(std::int64_t pos) {
    const std::size_t i = kStackSlots - 1 - pos / 8;
    if (i >= stack.size()) stack.resize(i + 1);
    return stack[i];
  }

  bool same_invariants(const State& o) const {
    if (regs != o.regs || pkt_range != o.pkt_range) return false;
    const bool shorter = stack.size() <= o.stack.size();
    const std::vector<StackSlot>& lo = shorter ? stack : o.stack;
    const std::vector<StackSlot>& hi = shorter ? o.stack : stack;
    return std::equal(lo.begin(), lo.end(), hi.begin()) &&
           std::all_of(hi.begin() + lo.size(), hi.end(),
                       [](const StackSlot& s) { return s == kUnwritten; });
  }
};

struct VerifierError {
  std::string msg;
  int insn = -1;
};

// Ctx field descriptor.
struct CtxField {
  int off;
  int size;
  RT load_type;    // type a load produces
  bool writable;
};

// The __sk_buff-like layout shared by all LWT/seg6local program types
// (ebpf/skb.h).
constexpr CtxField kCtxFields[] = {
    {0, 8, RT::kPktPtr, false},   // data
    {8, 8, RT::kPktEnd, false},   // data_end
    {16, 4, RT::kScalar, false},  // len
    {20, 4, RT::kScalar, false},  // protocol
    {24, 4, RT::kScalar, true},   // mark (the one writable field)
    {28, 4, RT::kScalar, false},  // ingress_ifindex
    {32, 8, RT::kScalar, false},  // tstamp
};
constexpr int kCtxSize = 40;

class Checker {
 public:
  Checker(const std::vector<Insn>& insns, ProgType type,
          const MapRegistry* maps, const HelperRegistry* helpers,
          const VerifyOptions& opts)
      : insns_(insns), type_(type), maps_(maps), helpers_(helpers),
        opts_(opts) {}

  VerifyResult run();

 private:
  // ---- CFG ----
  std::optional<VerifierError> check_cfg();
  // ---- symbolic execution ----
  std::optional<VerifierError> explore();
  // One instruction; pushes successor states onto the worklist.
  std::optional<VerifierError> step(State s);

  std::optional<VerifierError> do_alu(State& s, const Insn& insn);
  std::optional<VerifierError> do_load(State& s, const Insn& insn);
  std::optional<VerifierError> do_store(State& s, const Insn& insn);
  std::optional<VerifierError> do_call(State& s, const Insn& insn);
  std::optional<VerifierError> do_jump(State s, const Insn& insn);

  std::optional<VerifierError> check_reg_init(const State& s, int reg,
                                              int insn_idx) const;
  // Validates a memory access; for stack reads/writes also updates slot
  // tracking. `load_out` receives the register state a load should produce.
  std::optional<VerifierError> access_mem(State& s, const Reg& ptr, int size,
                                          bool write, int insn_idx,
                                          Reg* load_out,
                                          const Reg* store_src = nullptr);
  std::optional<VerifierError> helper_mem_arg(State& s, const Reg& mem,
                                              std::uint64_t size, bool uninit,
                                              int insn_idx);

  void push(State s);
  void mark_map_null_branch(State& s, std::uint32_t id, bool is_null);
  void invalidate_packet(State& s);

  VerifierError err(int insn, const std::string& msg) const {
    return {msg + " (at insn " + std::to_string(insn) + ": " +
                (insn >= 0 && insn < static_cast<int>(insns_.size())
                     ? disasm(insns_[insn])
                     : std::string("?")) +
                ")",
            insn};
  }

  const std::vector<Insn>& insns_;
  ProgType type_;
  const MapRegistry* maps_;
  const HelperRegistry* helpers_;
  VerifyOptions opts_;

  std::vector<bool> is_aux_;        // second slot of LD_IMM64
  std::vector<bool> is_join_;       // two or more CFG predecessors
  std::deque<State> worklist_;
  std::vector<std::vector<State>> seen_;  // per-join-point states for pruning
  VerifyStats stats_;
};

// ---------------------------------------------------------------------------
// CFG checks
// ---------------------------------------------------------------------------

std::optional<VerifierError> Checker::check_cfg() {
  const int n = static_cast<int>(insns_.size());
  if (n == 0) return VerifierError{"empty program", -1};
  if (n > kMaxInsns)
    return VerifierError{"program too large (" + std::to_string(n) + " > " +
                             std::to_string(kMaxInsns) + ")",
                         -1};

  is_aux_.assign(n, false);
  for (int i = 0; i < n; ++i) {
    if (insns_[i].is_ld_imm64()) {
      if (i + 1 >= n)
        return err(i, "ld_imm64 missing second slot");
      if (insns_[i + 1].opcode != 0)
        return err(i + 1, "ld_imm64 second slot must have opcode 0");
      is_aux_[i + 1] = true;
      ++i;
    } else if (insns_[i].opcode == 0) {
      return err(i, "invalid opcode 0");
    }
  }

  // Successor computation.
  auto successors = [&](int i, int out[2]) -> int {
    const Insn& insn = insns_[i];
    if (insn.is_exit()) return 0;
    if (insn.is_ld_imm64()) {
      out[0] = i + 2;
      return 1;
    }
    if (insn.is_unconditional_jump()) {
      out[0] = i + 1 + insn.off;
      return 1;
    }
    if (insn.is_jump()) {
      out[0] = i + 1;
      out[1] = i + 1 + insn.off;
      return 2;
    }
    out[0] = i + 1;
    return 1;
  };

  // Iterative DFS with colouring for cycle detection + reachability.
  enum Colour : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<Colour> colour(n, kWhite);
  is_join_.assign(n, false);
  std::vector<std::pair<int, int>> dfs;  // (node, next-successor-index)
  dfs.emplace_back(0, 0);
  colour[0] = kGrey;
  while (!dfs.empty()) {
    auto& [node, next] = dfs.back();
    int succ[2];
    const int count = successors(node, succ);
    if (next >= count) {
      colour[node] = kBlack;
      dfs.pop_back();
      continue;
    }
    const int t = succ[next++];
    if (t == n)
      return err(node, "control flow falls off the end of the program");
    if (t < 0 || t > n)
      return err(node, "jump/fallthrough out of program bounds");
    if (is_aux_[t]) return err(node, "jump into the middle of ld_imm64");
    if (colour[t] == kGrey)
      return err(node, "back-edge detected (loops are not allowed)");
    // Every edge but the first into `t` finds it finished.
    if (colour[t] == kBlack) is_join_[t] = true;
    if (colour[t] == kWhite) {
      colour[t] = kGrey;
      dfs.emplace_back(t, 0);
    }
  }

  for (int i = 0; i < n; ++i) {
    if (colour[i] == kWhite && !is_aux_[i])
      return err(i, "unreachable instruction");
    // Falling through past the last instruction.
    if (colour[i] != kWhite && !insns_[i].is_exit()) {
      int succ[2];
      const int count = successors(i, succ);
      for (int k = 0; k < count; ++k)
        if (succ[k] == n)
          return err(i, "control flow falls off the end of the program");
      if (count == 0 && !insns_[i].is_exit())
        return err(i, "control flow falls off the end of the program");
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Symbolic execution
// ---------------------------------------------------------------------------

// Pruning stores and compares states only at join points, where paths meet.
// States that become identical after a join stay apart until the next one.
void Checker::push(State s) {
  if (opts_.enable_pruning && is_join_[s.pc]) {
    for (const State& old : seen_[s.pc]) {
      if (old.same_invariants(s)) {
        ++stats_.states_pruned;
        return;
      }
    }
    seen_[s.pc].push_back(s);
  }
  worklist_.push_back(std::move(s));
}

std::optional<VerifierError> Checker::explore() {
  seen_.assign(insns_.size(), {});
  State init;
  init.pc = 0;
  init.regs[R1] = {.type = RT::kCtxPtr};
  init.regs[R10] = {.type = RT::kStackPtr};
  push(std::move(init));

  while (!worklist_.empty()) {
    State s = std::move(worklist_.front());
    worklist_.pop_front();
    if (++stats_.states_visited > opts_.max_states)
      return VerifierError{"program too complex (state budget exhausted)", -1};
    if (auto e = step(std::move(s))) return e;
  }
  return std::nullopt;
}

std::optional<VerifierError> Checker::check_reg_init(const State& s, int reg,
                                                     int insn_idx) const {
  if (reg < 0 || reg >= kNumRegs)
    return err(insn_idx, "unknown register r" + std::to_string(reg));
  if (s.regs[reg].type == RT::kNotInit)
    return err(insn_idx, "read of uninitialised register r" +
                             std::to_string(reg));
  return std::nullopt;
}

std::optional<VerifierError> Checker::step(State s) {
  const int pc = static_cast<int>(s.pc);
  const Insn& insn = insns_[pc];

  switch (insn.insn_class()) {
    case BPF_ALU:
    case BPF_ALU64: {
      if (auto e = do_alu(s, insn)) return e;
      s.pc = pc + 1;
      push(std::move(s));
      return std::nullopt;
    }
    case BPF_LD: {
      if (auto e = do_load(s, insn)) return e;
      s.pc = pc + 2;  // ld_imm64 pair
      push(std::move(s));
      return std::nullopt;
    }
    case BPF_LDX: {
      if (auto e = do_load(s, insn)) return e;
      s.pc = pc + 1;
      push(std::move(s));
      return std::nullopt;
    }
    case BPF_ST:
    case BPF_STX: {
      if (auto e = do_store(s, insn)) return e;
      s.pc = pc + 1;
      push(std::move(s));
      return std::nullopt;
    }
    case BPF_JMP:
    case BPF_JMP32: {
      if (insn.is_exit()) {
        if (auto e = check_reg_init(s, R0, pc)) return e;
        if (s.regs[R0].type != RT::kScalar)
          return err(pc, "R0 must hold a scalar return value at exit");
        return std::nullopt;  // path done
      }
      if (insn.is_call()) {
        if (auto e = do_call(s, insn)) return e;
        s.pc = pc + 1;
        push(std::move(s));
        return std::nullopt;
      }
      return do_jump(std::move(s), insn);
    }
  }
  return err(pc, "unknown instruction class");
}

// ---- ALU -------------------------------------------------------------------

namespace {

// Sign-extended immediate as u64 (eBPF semantics for 64-bit ALU with K).
std::uint64_t sext_imm(std::int32_t imm) {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(imm));
}

// 32-bit ALU result bounds: exact when both operands constant, else the
// conservative [0, 2^32-1] (ALU32 zero-extends into the upper half).
Reg alu32_result(std::uint8_t op, const Reg& a, std::optional<std::uint64_t> b) {
  if (a.is_const() && b.has_value()) {
    const std::uint32_t x = static_cast<std::uint32_t>(a.umin);
    const std::uint32_t y = static_cast<std::uint32_t>(*b);
    std::uint32_t r = 0;
    switch (op) {
      case BPF_ADD: r = x + y; break;
      case BPF_SUB: r = x - y; break;
      case BPF_MUL: r = x * y; break;
      case BPF_DIV: r = y ? x / y : 0; break;
      case BPF_MOD: r = y ? x % y : x; break;
      case BPF_OR: r = x | y; break;
      case BPF_AND: r = x & y; break;
      case BPF_XOR: r = x ^ y; break;
      case BPF_LSH: r = x << (y & 31); break;
      case BPF_RSH: r = x >> (y & 31); break;
      case BPF_ARSH:
        r = static_cast<std::uint32_t>(static_cast<std::int32_t>(x) >>
                                       (y & 31));
        break;
      case BPF_MOV: r = y; break;
      default: return Reg::scalar_range(0, kU32Max);
    }
    return Reg::scalar_const(r);
  }
  if (op == BPF_AND && b.has_value())
    return Reg::scalar_range(0, std::min<std::uint64_t>(
                                    kU32Max, static_cast<std::uint32_t>(*b)));
  return Reg::scalar_range(0, kU32Max);
}

}  // namespace

std::optional<VerifierError> Checker::do_alu(State& s, const Insn& insn) {
  const int pc = static_cast<int>(s.pc);
  const int dst = insn.dst;
  const bool is64 = insn.insn_class() == BPF_ALU64;
  const std::uint8_t op = insn.alu_op();

  if (dst >= kNumRegs) return err(pc, "unknown destination register");
  if (dst == R10) return err(pc, "frame pointer R10 is read-only");

  // Source operand (register or immediate).
  std::optional<Reg> src_reg;
  if (insn.uses_reg_src() && op != BPF_END) {
    if (auto e = check_reg_init(s, insn.src, pc)) return e;
    src_reg = s.regs[insn.src];
  }

  Reg& d = s.regs[dst];

  // MOV is special: it initialises dst regardless of prior state.
  if (op == BPF_MOV) {
    if (src_reg) {
      if (is64) {
        d = *src_reg;
      } else {
        d = alu32_result(BPF_MOV, Reg::scalar_const(0),
                         src_reg->is_const()
                             ? std::optional<std::uint64_t>(src_reg->umin)
                             : std::nullopt);
        if (!src_reg->is_const() && src_reg->type == RT::kScalar &&
            src_reg->umax <= kU32Max)
          d = Reg::scalar_range(src_reg->umin, src_reg->umax);
        if (src_reg->is_pointer()) d = Reg::scalar_range(0, kU32Max);
      }
    } else {
      d = is64 ? Reg::scalar_const(sext_imm(insn.imm))
               : Reg::scalar_const(static_cast<std::uint32_t>(insn.imm));
    }
    return std::nullopt;
  }

  if (op == BPF_END) {
    if (auto e = check_reg_init(s, dst, pc)) return e;
    if (d.is_pointer()) return err(pc, "byte swap on pointer");
    if (insn.imm != 16 && insn.imm != 32 && insn.imm != 64)
      return err(pc, "invalid byte swap width");
    d = Reg::scalar_unknown();
    if (insn.imm != 64) d.umax = (1ull << insn.imm) - 1;
    return std::nullopt;
  }

  if (op == BPF_NEG) {
    // Linux rejects BPF_NEG with the source bit set (BPF_X): negation has
    // no register operand. Both engines enforce this at runtime too.
    if (insn.uses_reg_src())
      return err(pc, "BPF_NEG with register source");
    if (auto e = check_reg_init(s, dst, pc)) return e;
    if (d.is_pointer()) return err(pc, "arithmetic negation on pointer");
    d = d.is_const() ? Reg::scalar_const(is64 ? (~d.umin + 1)
                                              : static_cast<std::uint32_t>(
                                                    -static_cast<std::int32_t>(
                                                        d.umin)))
                     : (is64 ? Reg::scalar_unknown()
                             : Reg::scalar_range(0, kU32Max));
    return std::nullopt;
  }

  if (auto e = check_reg_init(s, dst, pc)) return e;

  // Static division/shift sanity on immediates.
  if (!insn.uses_reg_src()) {
    if ((op == BPF_DIV || op == BPF_MOD) && insn.imm == 0)
      return err(pc, "division by zero immediate");
    if ((op == BPF_LSH || op == BPF_RSH || op == BPF_ARSH) &&
        (insn.imm < 0 || insn.imm >= (is64 ? 64 : 32)))
      return err(pc, "shift amount out of range");
  }

  const bool src_is_ptr = src_reg && src_reg->is_pointer();

  // ---- Pointer arithmetic ----
  if (d.is_pointer() || src_is_ptr) {
    if (!is64)
      return err(pc, "32-bit arithmetic on pointer");
    if (op != BPF_ADD && op != BPF_SUB)
      return err(pc, "only add/sub allowed on pointers");
    if (d.is_pointer() && src_is_ptr)
      return err(pc, "pointer-pointer arithmetic not supported");

    // Normalise to ptr (+/-) scalar.
    Reg ptr = d.is_pointer() ? d : *src_reg;
    Reg scl;
    if (d.is_pointer()) {
      scl = src_reg ? *src_reg : Reg::scalar_const(sext_imm(insn.imm));
    } else {
      if (op == BPF_SUB) return err(pc, "cannot subtract pointer from scalar");
      scl = d;
    }
    if (ptr.type == RT::kConstMapPtr || ptr.type == RT::kPktEnd ||
        ptr.type == RT::kCtxPtr || ptr.type == RT::kMapValueOrNull)
      return err(pc, std::string("arithmetic on ") + rt_name(ptr.type) +
                         " pointer not allowed");
    if (scl.type != RT::kScalar)
      return err(pc, "pointer arithmetic with non-scalar operand");
    if (scl.umax > static_cast<std::uint64_t>(kMaxPtrOff) &&
        !(scl.is_const() &&
          static_cast<std::int64_t>(scl.umin) >= -kMaxPtrOff &&
          static_cast<std::int64_t>(scl.umin) <= kMaxPtrOff))
      return err(pc, "pointer offset is unbounded");

    std::int64_t lo, hi;
    if (scl.is_const()) {
      lo = hi = static_cast<std::int64_t>(scl.umin);
    } else {
      lo = static_cast<std::int64_t>(scl.umin);
      hi = static_cast<std::int64_t>(scl.umax);
    }
    if (op == BPF_SUB) {
      if (!scl.is_const())
        return err(pc, "variable subtraction from pointer not allowed");
      lo = hi = -lo;
    }
    ptr.off_min += lo;
    ptr.off_max += hi;
    if (std::abs(ptr.off_min) > kMaxPtrOff || std::abs(ptr.off_max) > kMaxPtrOff)
      return err(pc, "pointer offset out of bounds");
    d = ptr;
    return std::nullopt;
  }

  // ---- Scalar arithmetic ----
  std::optional<std::uint64_t> k;
  if (src_reg) {
    if (src_reg->is_const()) k = src_reg->umin;
  } else {
    k = is64 ? sext_imm(insn.imm)
             : static_cast<std::uint64_t>(static_cast<std::uint32_t>(insn.imm));
  }

  if (!is64) {
    d = alu32_result(op, d, k);
    return std::nullopt;
  }

  if (d.is_const() && k.has_value()) {
    const std::uint64_t x = d.umin, y = *k;
    std::uint64_t r = 0;
    switch (op) {
      case BPF_ADD: r = x + y; break;
      case BPF_SUB: r = x - y; break;
      case BPF_MUL: r = x * y; break;
      case BPF_DIV: r = y ? x / y : 0; break;
      case BPF_MOD: r = y ? x % y : x; break;
      case BPF_OR: r = x | y; break;
      case BPF_AND: r = x & y; break;
      case BPF_XOR: r = x ^ y; break;
      case BPF_LSH: r = x << (y & 63); break;
      case BPF_RSH: r = x >> (y & 63); break;
      case BPF_ARSH:
        r = static_cast<std::uint64_t>(static_cast<std::int64_t>(x) >>
                                       (y & 63));
        break;
      default: d = Reg::scalar_unknown(); return std::nullopt;
    }
    d = Reg::scalar_const(r);
    return std::nullopt;
  }

  // Interval arithmetic for the common bound-preserving cases.
  switch (op) {
    case BPF_ADD: {
      const std::uint64_t lo_b = k ? *k : (src_reg ? src_reg->umin : 0);
      const std::uint64_t hi_b = k ? *k : (src_reg ? src_reg->umax : kU64Max);
      if (d.umax <= kU64Max - hi_b)  // no wrap
        d = Reg::scalar_range(d.umin + lo_b, d.umax + hi_b);
      else
        d = Reg::scalar_unknown();
      break;
    }
    case BPF_AND:
      if (k)
        d = Reg::scalar_range(0, std::min(d.umax, *k));
      else
        d = Reg::scalar_range(
            0, std::min(d.umax, src_reg ? src_reg->umax : kU64Max));
      break;
    case BPF_MOD:
      if (k && *k > 0)
        d = Reg::scalar_range(0, *k - 1);
      else
        d = Reg::scalar_unknown();
      break;
    case BPF_DIV:
      if (k && *k > 0)
        d = Reg::scalar_range(d.umin / *k, d.umax / *k);
      else
        d = Reg::scalar_unknown();
      break;
    case BPF_RSH:
      if (k)
        d = Reg::scalar_range(d.umin >> (*k & 63), d.umax >> (*k & 63));
      else
        d = Reg::scalar_range(0, d.umax);
      break;
    case BPF_LSH:
      if (k && d.umax <= (kU64Max >> (*k & 63)))
        d = Reg::scalar_range(d.umin << (*k & 63), d.umax << (*k & 63));
      else
        d = Reg::scalar_unknown();
      break;
    case BPF_MUL:
      if (k && (*k == 0 || d.umax <= kU64Max / std::max<std::uint64_t>(*k, 1)))
        d = Reg::scalar_range(d.umin * *k, d.umax * *k);
      else
        d = Reg::scalar_unknown();
      break;
    default:
      d = Reg::scalar_unknown();
  }
  return std::nullopt;
}

// ---- Loads -----------------------------------------------------------------

std::optional<VerifierError> Checker::do_load(State& s, const Insn& insn) {
  const int pc = static_cast<int>(s.pc);

  if (insn.insn_class() == BPF_LD) {
    if (!insn.is_ld_imm64()) return err(pc, "unsupported BPF_LD mode");
    if (insn.dst >= kNumRegs || insn.dst == R10)
      return err(pc, "bad ld_imm64 destination");
    const Insn& hi = insns_[pc + 1];
    if (insn.src == BPF_PSEUDO_MAP_FD) {
      const auto map_id = static_cast<std::uint32_t>(insn.imm);
      if (maps_ == nullptr || maps_->get(map_id) == nullptr)
        return err(pc, "ld_map references unknown map id " +
                           std::to_string(map_id));
      s.regs[insn.dst] = {.type = RT::kConstMapPtr, .map_id = map_id};
    } else if (insn.src != 0) {
      return err(pc, "unknown ld_imm64 pseudo source");
    } else {
      const std::uint64_t v =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi.imm))
           << 32) |
          static_cast<std::uint32_t>(insn.imm);
      s.regs[insn.dst] = Reg::scalar_const(v);
    }
    return std::nullopt;
  }

  // LDX
  if (insn.mode_field() != BPF_MEM) return err(pc, "unsupported LDX mode");
  if (insn.dst >= kNumRegs || insn.dst == R10)
    return err(pc, "bad load destination register");
  if (auto e = check_reg_init(s, insn.src, pc)) return e;
  const Reg& ptr = s.regs[insn.src];
  const int size = access_size(insn.size_field());

  // Loads from ctx are typed by the field table.
  if (ptr.type == RT::kCtxPtr) {
    if (ptr.off_min != ptr.off_max)
      return err(pc, "variable offset into ctx");
    const std::int64_t off = ptr.off_min + insn.off;
    for (const CtxField& f : kCtxFields) {
      if (off == f.off && size == f.size) {
        Reg out{.type = f.load_type};
        if (f.load_type == RT::kScalar) {
          out = Reg::scalar_unknown();
          if (size < 8) out.umax = (1ull << (size * 8)) - 1;
        }
        s.regs[insn.dst] = out;
        return std::nullopt;
      }
    }
    return err(pc, "invalid ctx access at offset " + std::to_string(off) +
                       " size " + std::to_string(size));
  }

  Reg tmp = ptr;
  tmp.off_min += insn.off;
  tmp.off_max += insn.off;
  Reg out;
  if (auto e = access_mem(s, tmp, size, /*write=*/false, pc, &out)) return e;
  s.regs[insn.dst] = out;
  return std::nullopt;
}

// ---- Stores ----------------------------------------------------------------

std::optional<VerifierError> Checker::do_store(State& s, const Insn& insn) {
  const int pc = static_cast<int>(s.pc);
  if (insn.mode_field() != BPF_MEM) return err(pc, "unsupported store mode");
  if (auto e = check_reg_init(s, insn.dst, pc)) return e;
  const int size = access_size(insn.size_field());

  Reg src_val;
  if (insn.insn_class() == BPF_STX) {
    if (auto e = check_reg_init(s, insn.src, pc)) return e;
    src_val = s.regs[insn.src];
  } else {
    src_val = Reg::scalar_const(sext_imm(insn.imm));
  }

  const Reg& ptr = s.regs[insn.dst];

  if (ptr.type == RT::kCtxPtr) {
    if (ptr.off_min != ptr.off_max)
      return err(pc, "variable offset into ctx");
    const std::int64_t off = ptr.off_min + insn.off;
    for (const CtxField& f : kCtxFields) {
      if (off == f.off && size == f.size) {
        if (!f.writable)
          return err(pc, "write to read-only ctx field at offset " +
                             std::to_string(off));
        if (src_val.is_pointer()) return err(pc, "leaking pointer into ctx");
        return std::nullopt;
      }
    }
    return err(pc, "invalid ctx access at offset " + std::to_string(off) +
                       " size " + std::to_string(size));
  }

  Reg tmp = ptr;
  tmp.off_min += insn.off;
  tmp.off_max += insn.off;
  return access_mem(s, tmp, size, /*write=*/true, pc, nullptr, &src_val);
}

// ---- Generic memory access --------------------------------------------------

std::optional<VerifierError> Checker::access_mem(State& s, const Reg& ptr,
                                                 int size, bool write,
                                                 int insn_idx, Reg* load_out,
                                                 const Reg* store_src) {
  switch (ptr.type) {
    case RT::kStackPtr: {
      if (ptr.off_min != ptr.off_max)
        return err(insn_idx, "variable offset into stack");
      const std::int64_t off = ptr.off_min;
      if (off < -kStackSize || off + size > 0)
        return err(insn_idx, "stack access out of bounds [off " +
                                 std::to_string(off) + ", size " +
                                 std::to_string(size) + "]");
      const std::int64_t pos = off + kStackSize;  // 0..511
      if (write) {
        const bool spill_ptr = store_src && store_src->is_pointer();
        if (spill_ptr) {
          if (size != 8 || pos % 8 != 0)
            return err(insn_idx, "pointer spill must be 8-byte sized/aligned");
          s.write_slot(pos) = {
              .written = 0xff, .spilled = true, .spill = *store_src};
          return std::nullopt;
        }
        for (int i = 0; i < size; ++i) {
          StackSlot& slot = s.write_slot(pos + i);
          if (slot.spilled) {  // scalar overwrite kills the spill
            slot.spilled = false;
            slot.written = 0;
          }
          slot.written |= static_cast<std::uint8_t>(1u << ((pos + i) % 8));
        }
        return std::nullopt;
      }
      // Read.
      if (size == 8 && pos % 8 == 0 && s.read_slot(pos).spilled) {
        if (load_out) *load_out = s.read_slot(pos).spill;
        return std::nullopt;
      }
      for (int i = 0; i < size; ++i) {
        const StackSlot& slot = s.read_slot(pos + i);
        if (slot.spilled)
          return err(insn_idx, "partial read of spilled pointer");
        if (!(slot.written & (1u << ((pos + i) % 8))))
          return err(insn_idx, "read of uninitialised stack at off " +
                                   std::to_string(off + i));
      }
      if (load_out) {
        *load_out = Reg::scalar_unknown();
        if (size < 8) load_out->umax = (1ull << (size * 8)) - 1;
      }
      return std::nullopt;
    }
    case RT::kPktPtr: {
      if (write)
        return err(insn_idx,
                   "direct packet write not allowed for this program type "
                   "(use bpf_lwt_seg6_store_bytes)");
      if (ptr.off_min < 0)
        return err(insn_idx, "packet access with negative offset");
      if (static_cast<std::uint64_t>(ptr.off_max) + size > s.pkt_range)
        return err(insn_idx,
                   "packet access out of verified range (need bound check: "
                   "off " + std::to_string(ptr.off_max) + " size " +
                       std::to_string(size) + " > range " +
                       std::to_string(s.pkt_range) + ")");
      if (load_out) {
        *load_out = Reg::scalar_unknown();
        if (size < 8) load_out->umax = (1ull << (size * 8)) - 1;
      }
      return std::nullopt;
    }
    case RT::kMapValue: {
      const Map* map = maps_ ? maps_->get(ptr.map_id) : nullptr;
      if (map == nullptr) return err(insn_idx, "stale map value pointer");
      if (ptr.off_min < 0 ||
          static_cast<std::uint64_t>(ptr.off_max) + size > map->value_size())
        return err(insn_idx, "map value access out of bounds");
      if (write && store_src && store_src->is_pointer())
        return err(insn_idx, "leaking pointer into map value");
      if (load_out) {
        *load_out = Reg::scalar_unknown();
        if (size < 8) load_out->umax = (1ull << (size * 8)) - 1;
      }
      return std::nullopt;
    }
    case RT::kMapValueOrNull:
      return err(insn_idx, "map value pointer must be null-checked first");
    case RT::kPktEnd:
      return err(insn_idx, "dereference of pkt_end pointer");
    case RT::kConstMapPtr:
      return err(insn_idx, "dereference of map pointer");
    case RT::kScalar:
      return err(insn_idx, "dereference of scalar (not a pointer)");
    default:
      return err(insn_idx, "dereference of uninitialised register");
  }
}

// ---- Calls -----------------------------------------------------------------

std::optional<VerifierError> Checker::helper_mem_arg(State& s, const Reg& mem,
                                                     std::uint64_t size,
                                                     bool uninit,
                                                     int insn_idx) {
  if (size == 0) return std::nullopt;
  if (size > kMaxMemArg)
    return err(insn_idx, "helper memory argument too large");
  // Validate/initialise byte range via access_mem; for stack we emulate a
  // write when uninit (helper fills it) and reads otherwise.
  Reg tmp = mem;
  // Validate the whole [off, off+size) span one byte at a time through the
  // existing accessor (sizes are small; clarity over speed here).
  for (std::uint64_t i = 0; i < size; ++i) {
    Reg b = tmp;
    b.off_min += static_cast<std::int64_t>(i);
    b.off_max += static_cast<std::int64_t>(i);
    Reg out;
    if (auto e = access_mem(s, b, 1, uninit, insn_idx, &out)) return e;
  }
  return std::nullopt;
}

std::optional<VerifierError> Checker::do_call(State& s, const Insn& insn) {
  const int pc = static_cast<int>(s.pc);
  if (helpers_ == nullptr) return err(pc, "no helpers registered");
  const HelperProto* proto = helpers_->proto(insn.imm);
  if (proto == nullptr)
    return err(pc, "call to unknown helper " + std::to_string(insn.imm));
  const std::uint8_t type_bit = [&] {
    switch (type_) {
      case ProgType::kLwtIn: return kProgLwtIn;
      case ProgType::kLwtOut: return kProgLwtOut;
      case ProgType::kLwtXmit: return kProgLwtXmit;
      case ProgType::kLwtSeg6Local: return kProgSeg6Local;
      case ProgType::kSocketFilter: return kProgSocketFilter;
    }
    return kProgAny;
  }();
  if (!(proto->allowed_types & type_bit))
    return err(pc, "helper " + proto->name + " not allowed for program type " +
                       prog_type_name(type_));

  std::uint32_t seen_map_id = 0;
  for (int i = 0; i < 5; ++i) {
    const ArgKind kind = proto->args[i];
    if (kind == ArgKind::kNone) continue;
    const int reg = R1 + i;
    if (auto e = check_reg_init(s, reg, pc))
      return err(pc, "helper " + proto->name + ": argument " +
                         std::to_string(i + 1) + " uninitialised");
    const Reg& r = s.regs[reg];
    switch (kind) {
      case ArgKind::kAnything:
        if (r.type == RT::kMapValueOrNull)
          return err(pc, "helper " + proto->name +
                             ": possibly-null map value as argument");
        break;
      case ArgKind::kPtrToCtx:
        if (r.type != RT::kCtxPtr || r.off_min != 0 || r.off_max != 0)
          return err(pc, "helper " + proto->name + ": arg" +
                             std::to_string(i + 1) + " must be ctx");
        break;
      case ArgKind::kConstMapPtr:
        if (r.type != RT::kConstMapPtr)
          return err(pc, "helper " + proto->name + ": arg" +
                             std::to_string(i + 1) + " must be a map pointer");
        seen_map_id = r.map_id;
        break;
      case ArgKind::kPtrToMapKey:
      case ArgKind::kPtrToMapValue: {
        const Map* map = maps_ ? maps_->get(seen_map_id) : nullptr;
        if (map == nullptr)
          return err(pc, "helper " + proto->name +
                             ": map key/value arg without map pointer");
        const std::uint64_t need = kind == ArgKind::kPtrToMapKey
                                       ? map->key_size()
                                       : map->value_size();
        if (auto e = helper_mem_arg(s, r, need, /*uninit=*/false, pc)) return e;
        break;
      }
      case ArgKind::kPtrToMem:
      case ArgKind::kPtrToUninitMem: {
        // Size comes from the following kConstSize argument.
        if (i + 1 >= 5 || (proto->args[i + 1] != ArgKind::kConstSize &&
                           proto->args[i + 1] != ArgKind::kConstSizeOrZero))
          return err(pc, "helper " + proto->name +
                             ": mem arg not followed by size arg");
        const Reg& sz = s.regs[reg + 1];
        if (sz.type != RT::kScalar)
          return err(pc, "helper " + proto->name + ": size arg not scalar");
        if (sz.umax > kMaxMemArg)
          return err(pc, "helper " + proto->name + ": size arg unbounded");
        if (proto->args[i + 1] == ArgKind::kConstSize && sz.umin == 0 &&
            sz.umax == 0)
          return err(pc, "helper " + proto->name + ": zero-sized mem arg");
        if (auto e = helper_mem_arg(s, r, sz.umax,
                                    kind == ArgKind::kPtrToUninitMem, pc))
          return e;
        break;
      }
      case ArgKind::kConstSize:
      case ArgKind::kConstSizeOrZero: {
        if (r.type != RT::kScalar)
          return err(pc, "helper " + proto->name + ": size arg not scalar");
        break;
      }
      case ArgKind::kNone:
        break;
    }
  }

  // Post-call effects.
  if (proto->invalidates_packet) invalidate_packet(s);
  for (int r = R1; r <= R5; ++r) s.regs[r] = Reg{};
  switch (proto->ret) {
    case RetKind::kInteger:
      s.regs[R0] = Reg::scalar_unknown();
      break;
    case RetKind::kPtrToMapValueOrNull: {
      s.regs[R0] = {.type = RT::kMapValueOrNull, .map_id = seen_map_id,
                    .id = s.next_id++};
      break;
    }
  }
  return std::nullopt;
}

// ---- Jumps -----------------------------------------------------------------

void Checker::mark_map_null_branch(State& s, std::uint32_t id, bool is_null) {
  for (Reg& r : s.regs) {
    if (r.type == RT::kMapValueOrNull && r.id == id) {
      if (is_null) {
        r = Reg::scalar_const(0);
      } else {
        r.type = RT::kMapValue;
        r.id = 0;
      }
    }
  }
  for (StackSlot& slot : s.stack) {
    if (slot.spilled && slot.spill.type == RT::kMapValueOrNull &&
        slot.spill.id == id) {
      if (is_null)
        slot.spill = Reg::scalar_const(0);
      else {
        slot.spill.type = RT::kMapValue;
        slot.spill.id = 0;
      }
    }
  }
}

void Checker::invalidate_packet(State& s) {
  s.pkt_range = 0;
  for (Reg& r : s.regs)
    if (r.type == RT::kPktPtr || r.type == RT::kPktEnd) r = Reg{};
  for (StackSlot& slot : s.stack)
    if (slot.spilled &&
        (slot.spill.type == RT::kPktPtr || slot.spill.type == RT::kPktEnd)) {
      slot.spilled = false;
      slot.written = 0;
    }
}

std::optional<VerifierError> Checker::do_jump(State s, const Insn& insn) {
  const int pc = static_cast<int>(s.pc);
  const bool is32 = insn.insn_class() == BPF_JMP32;

  if (insn.is_unconditional_jump()) {
    s.pc = pc + 1 + insn.off;
    push(std::move(s));
    return std::nullopt;
  }

  if (auto e = check_reg_init(s, insn.dst, pc)) return e;
  std::optional<Reg> src_reg;
  if (insn.uses_reg_src()) {
    if (auto e = check_reg_init(s, insn.src, pc)) return e;
    src_reg = s.regs[insn.src];
  }

  const Reg& a = s.regs[insn.dst];
  const std::uint8_t op = insn.alu_op();

  // ---- Null-check pattern on map values: if (r == 0) / if (r != 0) ----
  if (a.type == RT::kMapValueOrNull && !insn.uses_reg_src() && insn.imm == 0 &&
      (op == BPF_JEQ || op == BPF_JNE)) {
    State taken = s, fall = s;
    const std::uint32_t id = a.id;
    // JEQ: taken => null; JNE: taken => non-null.
    mark_map_null_branch(taken, id, op == BPF_JEQ);
    mark_map_null_branch(fall, id, op != BPF_JEQ);
    taken.pc = pc + 1 + insn.off;
    fall.pc = pc + 1;
    push(std::move(taken));
    push(std::move(fall));
    return std::nullopt;
  }

  // ---- Packet bounds pattern: cmp(pkt_ptr, pkt_end) ----
  if (!is32 && src_reg &&
      ((a.type == RT::kPktPtr && src_reg->type == RT::kPktEnd) ||
       (a.type == RT::kPktEnd && src_reg->type == RT::kPktPtr))) {
    const Reg& p = a.type == RT::kPktPtr ? a : *src_reg;
    // The provable readable range is the *minimum* possible offset.
    const std::uint32_t range =
        p.off_min > 0 ? static_cast<std::uint32_t>(p.off_min) : 0;
    const bool ptr_is_dst = a.type == RT::kPktPtr;

    // For which branch does the comparison prove `ptr <= end`?
    // ptr_is_dst:  JGT taken => ptr > end (fall: ptr <= end)
    //              JLE taken => ptr <= end
    //              JGE taken => ptr >= end (fall: ptr < end => ptr <= end)
    //              JLT taken => ptr < end  => ptr <= end
    // end_is_dst:  mirror.
    auto branch_proves = [&](bool taken) -> bool {
      switch (op) {
        case BPF_JGT: return ptr_is_dst ? !taken : taken;
        case BPF_JLE: return ptr_is_dst ? taken : !taken;
        case BPF_JGE: return ptr_is_dst ? !taken : taken;
        case BPF_JLT: return ptr_is_dst ? taken : !taken;
        default: return false;
      }
    };
    // Note: for JGE/JLT the proven relation is strict (<), which still
    // implies <= and is therefore safe to use for `range` bytes.
    State taken = s, fall = s;
    if (branch_proves(true))
      taken.pkt_range = std::max(taken.pkt_range, range);
    if (branch_proves(false))
      fall.pkt_range = std::max(fall.pkt_range, range);
    taken.pc = pc + 1 + insn.off;
    fall.pc = pc + 1;
    push(std::move(taken));
    push(std::move(fall));
    return std::nullopt;
  }

  // Generic comparisons: pointers may only be compared for equality with
  // other pointers of the same type; scalars get range refinement.
  if (a.is_pointer() || (src_reg && src_reg->is_pointer())) {
    const bool both_ptr = a.is_pointer() && src_reg && src_reg->is_pointer();
    if (!(both_ptr && (op == BPF_JEQ || op == BPF_JNE) &&
          a.type == src_reg->type))
      return err(pc, "invalid pointer comparison");
    State taken = s, fall = s;
    taken.pc = pc + 1 + insn.off;
    fall.pc = pc + 1;
    push(std::move(taken));
    push(std::move(fall));
    return std::nullopt;
  }

  // Scalar vs scalar/immediate with unsigned range refinement (64-bit only;
  // JMP32 falls back to exploring both branches unrefined).
  std::optional<std::uint64_t> k;
  if (!insn.uses_reg_src()) k = sext_imm(insn.imm);
  else if (src_reg->is_const()) k = src_reg->umin;

  State taken = s, fall = s;
  bool taken_feasible = true, fall_feasible = true;

  if (k && !is32) {
    Reg& rt = taken.regs[insn.dst];
    Reg& rf = fall.regs[insn.dst];
    const std::uint64_t v = *k;
    switch (op) {
      case BPF_JEQ:
        if (v < rt.umin || v > rt.umax) taken_feasible = false;
        else { rt.umin = rt.umax = v; }
        if (rf.is_const() && rf.umin == v) fall_feasible = false;
        break;
      case BPF_JNE:
        if (rt.is_const() && rt.umin == v) taken_feasible = false;
        if (v < rf.umin || v > rf.umax) fall_feasible = false;
        else { rf.umin = rf.umax = v; }
        break;
      case BPF_JGT:
        if (rt.umax <= v) taken_feasible = false;
        else rt.umin = std::max(rt.umin, v + 1);
        if (rf.umin > v) fall_feasible = false;
        else rf.umax = std::min(rf.umax, v);
        break;
      case BPF_JGE:
        if (rt.umax < v) taken_feasible = false;
        else rt.umin = std::max(rt.umin, v);
        if (v == 0 || rf.umin >= v) fall_feasible = v != 0 && rf.umin < v;
        if (fall_feasible) rf.umax = std::min(rf.umax, v - 1);
        break;
      case BPF_JLT:
        if (v == 0 || rt.umin >= v) taken_feasible = v != 0 && rt.umin < v;
        if (taken_feasible) rt.umax = std::min(rt.umax, v - 1);
        if (rf.umax < v) fall_feasible = false;
        else rf.umin = std::max(rf.umin, v);
        break;
      case BPF_JLE:
        if (rt.umin > v) taken_feasible = false;
        else rt.umax = std::min(rt.umax, v);
        if (rf.umax <= v) fall_feasible = false;
        else rf.umin = std::max(rf.umin, v + 1);
        break;
      default:
        break;  // JSET / signed: no refinement
    }
  }

  if (taken_feasible) {
    taken.pc = pc + 1 + insn.off;
    push(std::move(taken));
  }
  if (fall_feasible) {
    fall.pc = pc + 1;
    push(std::move(fall));
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------

VerifyResult Checker::run() {
  VerifyResult result;
  if (auto e = check_cfg()) {
    result.error = e->msg;
    result.error_insn = e->insn;
    result.stats = stats_;
    return result;
  }
  if (auto e = explore()) {
    result.error = e->msg;
    result.error_insn = e->insn;
    result.stats = stats_;
    return result;
  }
  result.ok = true;
  result.stats = stats_;
  return result;
}

}  // namespace

VerifyResult Verifier::verify(const std::vector<Insn>& insns,
                              ProgType type) const {
  Checker checker(insns, type, maps_, helpers_, opts_);
  return checker.run();
}

VerifyResult Verifier::verify(const Program& prog) const {
  return verify(prog.insns(), prog.type());
}

}  // namespace srv6bpf::ebpf
