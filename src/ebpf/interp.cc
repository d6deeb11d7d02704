#include "ebpf/interp.h"

#include <array>
#include <cstring>
#include <string>

#include "ebpf/helpers.h"
#include "ebpf/insn.h"
#include "util/byteorder.h"

namespace srv6bpf::ebpf {
namespace {

ExecResult fault(std::uint64_t executed, std::string msg) {
  ExecResult r;
  r.insns_executed = executed;
  r.aborted = true;
  r.error = std::move(msg);
  return r;
}

// Pushes the per-invocation BPF stack as a helper-visible region and drops
// it (plus any regions helpers appended, e.g. map values) on scope exit.
struct RegionGuard {
  ExecEnv& env;
  std::size_t base;
  RegionGuard(ExecEnv& e, const MemRegion& r)
      : env(e), base(e.regions.size()) {
    env.regions.push_back(r);
  }
  ~RegionGuard() { env.regions.resize(base); }
};

}  // namespace

// ---------------------------------------------------------------------------
// Pre-decoded, threaded-dispatch engine (the hot path)
// ---------------------------------------------------------------------------

ExecResult Interpreter::run(const DecodedProgram& prog, ExecEnv& env,
                            std::uint64_t ctx) const {
  std::array<std::uint64_t, kNumRegs> regs{};
  // Deliberately not zero-filled: decoded programs come from the verifier,
  // which proves every stack slot is written before it is read (the kernel
  // interpreter does not clear the BPF stack either). The baseline engine
  // below zero-fills because it accepts unverified streams.
  alignas(16) std::array<std::uint8_t, kStackSize> stack;

  const std::uint64_t stack_base =
      reinterpret_cast<std::uint64_t>(stack.data());
  regs[R1] = ctx;
  regs[R10] = stack_base + kStackSize;

  RegionGuard region_guard(env, MemRegion{stack_base, kStackSize, true});

  ExecResult res;
  const DecodedInsn* const base = prog.data();
  const DecodedInsn* op = base;
  std::uint64_t executed = 0;

// Accessors for the current op's operands.
#define DST regs[op->dst]
#define SRC regs[op->src]

#define FAULT(msg)                \
  do {                            \
    res.insns_executed = executed; \
    res.aborted = true;           \
    res.error = (msg);            \
    return res;                   \
  } while (0)

// Memory checks with a single-comparison stack fast path: for any access
// size n <= 8, `addr - stack_base <= kStackSize - n` (unsigned) holds iff
// [addr, addr+n) lies inside the stack frame; addresses below the base wrap
// to huge values and fail. Everything else falls back to the region list.
#define CHECK_READ(addr, n)                                                 \
  do {                                                                      \
    if ((addr) - stack_base > kStackSize - (n) &&                           \
        !env.readable(reinterpret_cast<const void*>(addr), (n)))            \
      FAULT("invalid read of " + std::to_string(n) + " bytes");             \
  } while (0)
#define CHECK_WRITE(addr, n)                                                \
  do {                                                                      \
    if ((addr) - stack_base > kStackSize - (n) &&                           \
        !env.writable(reinterpret_cast<const void*>(addr), (n)))            \
      FAULT("invalid write of " + std::to_string(n) + " bytes");            \
  } while (0)

// Direct-threaded dispatch: every op jumps straight to the next op's label
// through a table built from the op-kind list (a GCC/Clang extension).
#define LBL_ADDR(name) &&L_##name,
  static const void* const kLabels[] = {SRV6BPF_OPKIND_LIST(LBL_ADDR)};
#undef LBL_ADDR
#define CASE(name) L_##name:
#define DISPATCH()                 \
  do {                             \
    ++executed;                    \
    goto* kLabels[op->kind];       \
  } while (0)

#define NEXT() \
  do {         \
    ++op;      \
    DISPATCH(); \
  } while (0)

// The step budget is amortised: checked only on taken backward jumps and
// helper calls. Between two checks control flow is strictly forward, so the
// overshoot is bounded by the program length (<= kMaxInsns).
#define TAKE_JUMP()                                        \
  do {                                                     \
    const DecodedInsn* t = base + op->target;              \
    if (t <= op && executed >= kMaxInterpSteps)            \
      FAULT("instruction budget exhausted");               \
    op = t;                                                \
    DISPATCH();                                            \
  } while (0)

// ALU / byteswap / load-immediate ops: one statement, then fall to the next
// op. Jump ops: test, then either TAKE_JUMP or fall through.
#define ACASE(name, stmt) \
  CASE(name) { stmt; NEXT(); }
#define JCASE(name, cond) \
  CASE(name) {            \
    if (cond) TAKE_JUMP(); \
    NEXT();               \
  }

  DISPATCH();
  {
    ACASE(kAdd64R, DST += SRC)
    ACASE(kSub64R, DST -= SRC)
    ACASE(kMul64R, DST *= SRC)
    ACASE(kDiv64R, DST = SRC ? DST / SRC : 0)
    ACASE(kMod64R, DST = SRC ? DST % SRC : DST)
    ACASE(kOr64R, DST |= SRC)
    ACASE(kAnd64R, DST &= SRC)
    ACASE(kXor64R, DST ^= SRC)
    ACASE(kMov64R, DST = SRC)
    ACASE(kLsh64R, DST <<= (SRC & 63))
    ACASE(kRsh64R, DST >>= (SRC & 63))
    ACASE(kArsh64R,
          DST = static_cast<std::uint64_t>(static_cast<std::int64_t>(DST) >>
                                           (SRC & 63)))
    ACASE(kAdd64I, DST += op->imm64)
    ACASE(kSub64I, DST -= op->imm64)
    ACASE(kMul64I, DST *= op->imm64)
    ACASE(kDiv64I, DST = op->imm64 ? DST / op->imm64 : 0)
    ACASE(kMod64I, DST = op->imm64 ? DST % op->imm64 : DST)
    ACASE(kOr64I, DST |= op->imm64)
    ACASE(kAnd64I, DST &= op->imm64)
    ACASE(kXor64I, DST ^= op->imm64)
    ACASE(kMov64I, DST = op->imm64)
    ACASE(kLsh64I, DST <<= (op->imm64 & 63))
    ACASE(kRsh64I, DST >>= (op->imm64 & 63))
    ACASE(kArsh64I,
          DST = static_cast<std::uint64_t>(static_cast<std::int64_t>(DST) >>
                                           (op->imm64 & 63)))
    ACASE(kNeg64, DST = ~DST + 1)

    ACASE(kAdd32R, DST = static_cast<std::uint32_t>(DST + SRC))
    ACASE(kSub32R, DST = static_cast<std::uint32_t>(DST - SRC))
    ACASE(kMul32R, DST = static_cast<std::uint32_t>(DST * SRC))
    CASE(kDiv32R) {
      const std::uint32_t b = static_cast<std::uint32_t>(SRC);
      DST = b ? static_cast<std::uint32_t>(DST) / b : 0;
      NEXT();
    }
    CASE(kMod32R) {
      const std::uint32_t b = static_cast<std::uint32_t>(SRC);
      DST = b ? static_cast<std::uint32_t>(DST) % b
              : static_cast<std::uint32_t>(DST);
      NEXT();
    }
    ACASE(kOr32R, DST = static_cast<std::uint32_t>(DST | SRC))
    ACASE(kAnd32R, DST = static_cast<std::uint32_t>(DST & SRC))
    ACASE(kXor32R, DST = static_cast<std::uint32_t>(DST ^ SRC))
    ACASE(kMov32R, DST = static_cast<std::uint32_t>(SRC))
    ACASE(kLsh32R, DST = static_cast<std::uint32_t>(DST) << (SRC & 31))
    ACASE(kRsh32R, DST = static_cast<std::uint32_t>(DST) >> (SRC & 31))
    ACASE(kArsh32R,
          DST = static_cast<std::uint32_t>(
              static_cast<std::int32_t>(static_cast<std::uint32_t>(DST)) >>
              (SRC & 31)))
    ACASE(kAdd32I, DST = static_cast<std::uint32_t>(DST + op->imm64))
    ACASE(kSub32I, DST = static_cast<std::uint32_t>(DST - op->imm64))
    ACASE(kMul32I, DST = static_cast<std::uint32_t>(DST * op->imm64))
    CASE(kDiv32I) {
      const std::uint32_t b = static_cast<std::uint32_t>(op->imm64);
      DST = b ? static_cast<std::uint32_t>(DST) / b : 0;
      NEXT();
    }
    CASE(kMod32I) {
      const std::uint32_t b = static_cast<std::uint32_t>(op->imm64);
      DST = b ? static_cast<std::uint32_t>(DST) % b
              : static_cast<std::uint32_t>(DST);
      NEXT();
    }
    ACASE(kOr32I, DST = static_cast<std::uint32_t>(DST | op->imm64))
    ACASE(kAnd32I, DST = static_cast<std::uint32_t>(DST & op->imm64))
    ACASE(kXor32I, DST = static_cast<std::uint32_t>(DST ^ op->imm64))
    ACASE(kMov32I, DST = static_cast<std::uint32_t>(op->imm64))
    ACASE(kLsh32I, DST = static_cast<std::uint32_t>(DST) << (op->imm64 & 31))
    ACASE(kRsh32I, DST = static_cast<std::uint32_t>(DST) >> (op->imm64 & 31))
    ACASE(kArsh32I,
          DST = static_cast<std::uint32_t>(
              static_cast<std::int32_t>(static_cast<std::uint32_t>(DST)) >>
              (op->imm64 & 31)))
    ACASE(kNeg32,
          DST = static_cast<std::uint32_t>(
              -static_cast<std::int32_t>(static_cast<std::uint32_t>(DST))))

    ACASE(kBe16, DST = kHostIsLittleEndian
                           ? bswap16(static_cast<std::uint16_t>(DST))
                           : static_cast<std::uint16_t>(DST))
    ACASE(kBe32, DST = kHostIsLittleEndian
                           ? bswap32(static_cast<std::uint32_t>(DST))
                           : static_cast<std::uint32_t>(DST))
    ACASE(kBe64, DST = kHostIsLittleEndian ? bswap64(DST) : DST)
    ACASE(kLe16, DST = kHostIsLittleEndian
                           ? static_cast<std::uint16_t>(DST)
                           : bswap16(static_cast<std::uint16_t>(DST)))
    ACASE(kLe32, DST = kHostIsLittleEndian
                           ? static_cast<std::uint32_t>(DST)
                           : bswap32(static_cast<std::uint32_t>(DST)))
    ACASE(kLe64, DST = kHostIsLittleEndian ? DST : bswap64(DST))

    CASE(kLd1) {
      const std::uint64_t a = SRC + op->off;
      CHECK_READ(a, 1);
      DST = load_unaligned<std::uint8_t>(reinterpret_cast<const void*>(a));
      NEXT();
    }
    CASE(kLd2) {
      const std::uint64_t a = SRC + op->off;
      CHECK_READ(a, 2);
      DST = load_unaligned<std::uint16_t>(reinterpret_cast<const void*>(a));
      NEXT();
    }
    CASE(kLd4) {
      const std::uint64_t a = SRC + op->off;
      CHECK_READ(a, 4);
      DST = load_unaligned<std::uint32_t>(reinterpret_cast<const void*>(a));
      NEXT();
    }
    CASE(kLd8) {
      const std::uint64_t a = SRC + op->off;
      CHECK_READ(a, 8);
      DST = load_unaligned<std::uint64_t>(reinterpret_cast<const void*>(a));
      NEXT();
    }
    CASE(kSt1R) {
      const std::uint64_t a = DST + op->off;
      CHECK_WRITE(a, 1);
      store_unaligned<std::uint8_t>(reinterpret_cast<void*>(a),
                                    static_cast<std::uint8_t>(SRC));
      NEXT();
    }
    CASE(kSt2R) {
      const std::uint64_t a = DST + op->off;
      CHECK_WRITE(a, 2);
      store_unaligned<std::uint16_t>(reinterpret_cast<void*>(a),
                                     static_cast<std::uint16_t>(SRC));
      NEXT();
    }
    CASE(kSt4R) {
      const std::uint64_t a = DST + op->off;
      CHECK_WRITE(a, 4);
      store_unaligned<std::uint32_t>(reinterpret_cast<void*>(a),
                                     static_cast<std::uint32_t>(SRC));
      NEXT();
    }
    CASE(kSt8R) {
      const std::uint64_t a = DST + op->off;
      CHECK_WRITE(a, 8);
      store_unaligned<std::uint64_t>(reinterpret_cast<void*>(a), SRC);
      NEXT();
    }
    CASE(kSt1I) {
      const std::uint64_t a = DST + op->off;
      CHECK_WRITE(a, 1);
      store_unaligned<std::uint8_t>(reinterpret_cast<void*>(a),
                                    static_cast<std::uint8_t>(op->imm));
      NEXT();
    }
    CASE(kSt2I) {
      const std::uint64_t a = DST + op->off;
      CHECK_WRITE(a, 2);
      store_unaligned<std::uint16_t>(reinterpret_cast<void*>(a),
                                     static_cast<std::uint16_t>(op->imm));
      NEXT();
    }
    CASE(kSt4I) {
      const std::uint64_t a = DST + op->off;
      CHECK_WRITE(a, 4);
      store_unaligned<std::uint32_t>(reinterpret_cast<void*>(a),
                                     static_cast<std::uint32_t>(op->imm));
      NEXT();
    }
    CASE(kSt8I) {
      const std::uint64_t a = DST + op->off;
      CHECK_WRITE(a, 8);
      store_unaligned<std::uint64_t>(
          reinterpret_cast<void*>(a),
          static_cast<std::uint64_t>(static_cast<std::int64_t>(op->imm)));
      NEXT();
    }

    ACASE(kLdImm64, DST = op->imm64)

    CASE(kJa) { TAKE_JUMP(); }

    JCASE(kJeqR, DST == SRC)
    JCASE(kJneR, DST != SRC)
    JCASE(kJgtR, DST > SRC)
    JCASE(kJgeR, DST >= SRC)
    JCASE(kJltR, DST < SRC)
    JCASE(kJleR, DST <= SRC)
    JCASE(kJsetR, (DST & SRC) != 0)
    JCASE(kJsgtR, static_cast<std::int64_t>(DST) > static_cast<std::int64_t>(SRC))
    JCASE(kJsgeR, static_cast<std::int64_t>(DST) >= static_cast<std::int64_t>(SRC))
    JCASE(kJsltR, static_cast<std::int64_t>(DST) < static_cast<std::int64_t>(SRC))
    JCASE(kJsleR, static_cast<std::int64_t>(DST) <= static_cast<std::int64_t>(SRC))
    JCASE(kJeqI, DST == op->imm64)
    JCASE(kJneI, DST != op->imm64)
    JCASE(kJgtI, DST > op->imm64)
    JCASE(kJgeI, DST >= op->imm64)
    JCASE(kJltI, DST < op->imm64)
    JCASE(kJleI, DST <= op->imm64)
    JCASE(kJsetI, (DST & op->imm64) != 0)
    JCASE(kJsgtI, static_cast<std::int64_t>(DST) > static_cast<std::int64_t>(op->imm64))
    JCASE(kJsgeI, static_cast<std::int64_t>(DST) >= static_cast<std::int64_t>(op->imm64))
    JCASE(kJsltI, static_cast<std::int64_t>(DST) < static_cast<std::int64_t>(op->imm64))
    JCASE(kJsleI, static_cast<std::int64_t>(DST) <= static_cast<std::int64_t>(op->imm64))
    JCASE(kJeq32R, static_cast<std::uint32_t>(DST) == static_cast<std::uint32_t>(SRC))
    JCASE(kJne32R, static_cast<std::uint32_t>(DST) != static_cast<std::uint32_t>(SRC))
    JCASE(kJgt32R, static_cast<std::uint32_t>(DST) > static_cast<std::uint32_t>(SRC))
    JCASE(kJge32R, static_cast<std::uint32_t>(DST) >= static_cast<std::uint32_t>(SRC))
    JCASE(kJlt32R, static_cast<std::uint32_t>(DST) < static_cast<std::uint32_t>(SRC))
    JCASE(kJle32R, static_cast<std::uint32_t>(DST) <= static_cast<std::uint32_t>(SRC))
    JCASE(kJset32R, (static_cast<std::uint32_t>(DST) & static_cast<std::uint32_t>(SRC)) != 0)
    JCASE(kJsgt32R, static_cast<std::int32_t>(DST) > static_cast<std::int32_t>(SRC))
    JCASE(kJsge32R, static_cast<std::int32_t>(DST) >= static_cast<std::int32_t>(SRC))
    JCASE(kJslt32R, static_cast<std::int32_t>(DST) < static_cast<std::int32_t>(SRC))
    JCASE(kJsle32R, static_cast<std::int32_t>(DST) <= static_cast<std::int32_t>(SRC))
    JCASE(kJeq32I, static_cast<std::uint32_t>(DST) == static_cast<std::uint32_t>(op->imm))
    JCASE(kJne32I, static_cast<std::uint32_t>(DST) != static_cast<std::uint32_t>(op->imm))
    JCASE(kJgt32I, static_cast<std::uint32_t>(DST) > static_cast<std::uint32_t>(op->imm))
    JCASE(kJge32I, static_cast<std::uint32_t>(DST) >= static_cast<std::uint32_t>(op->imm))
    JCASE(kJlt32I, static_cast<std::uint32_t>(DST) < static_cast<std::uint32_t>(op->imm))
    JCASE(kJle32I, static_cast<std::uint32_t>(DST) <= static_cast<std::uint32_t>(op->imm))
    JCASE(kJset32I, (static_cast<std::uint32_t>(DST) & static_cast<std::uint32_t>(op->imm)) != 0)
    JCASE(kJsgt32I, static_cast<std::int32_t>(DST) > op->imm)
    JCASE(kJsge32I, static_cast<std::int32_t>(DST) >= op->imm)
    JCASE(kJslt32I, static_cast<std::int32_t>(DST) < op->imm)
    JCASE(kJsle32I, static_cast<std::int32_t>(DST) <= op->imm)

    CASE(kCall) {
      if (executed >= kMaxInterpSteps)
        FAULT("instruction budget exhausted");
      ++res.helper_calls;
      regs[R0] =
          (*op->fn)(env, regs[R1], regs[R2], regs[R3], regs[R4], regs[R5]);
      NEXT();
    }
    CASE(kExit) {
      res.ret = regs[R0];
      res.insns_executed = executed;
      return res;
    }
  }

#undef DST
#undef SRC
#undef FAULT
#undef CHECK_READ
#undef CHECK_WRITE
#undef CASE
#undef DISPATCH
#undef NEXT
#undef TAKE_JUMP
#undef ACASE
#undef JCASE
}

// ---------------------------------------------------------------------------
// Baseline decode-every-step engine (reference; runs unverified streams)
// ---------------------------------------------------------------------------

ExecResult Interpreter::run(const Program& prog, ExecEnv& env,
                            std::uint64_t ctx) const {
  const std::vector<Insn>& insns = prog.insns();
  std::array<std::uint64_t, kNumRegs> regs{};
  alignas(16) std::array<std::uint8_t, kStackSize> stack{};

  regs[R1] = ctx;
  regs[R10] = reinterpret_cast<std::uint64_t>(stack.data()) + kStackSize;

  // Stack is always a valid writable region for this invocation, and is
  // exposed to helpers (which validate mem args against env.regions).
  const MemRegion stack_region{
      reinterpret_cast<std::uintptr_t>(stack.data()), kStackSize, true};
  RegionGuard region_guard(env, stack_region);

  auto mem_ok = [&](std::uint64_t addr, std::size_t n, bool write) {
    if (stack_region.contains(addr, n)) return true;
    const void* p = reinterpret_cast<const void*>(addr);
    return write ? env.writable(p, n) : env.readable(p, n);
  };

  ExecResult res;
  std::size_t pc = 0;

  while (true) {
    if (pc >= insns.size())
      return fault(res.insns_executed, "pc out of bounds");
    // Exact budget: stop *before* executing instruction kMaxInterpSteps+1,
    // reporting only instructions that actually ran (the seed admitted
    // kMaxSteps+2 executions here).
    if (res.insns_executed >= kMaxInterpSteps)
      return fault(res.insns_executed, "instruction budget exhausted");
    ++res.insns_executed;

    const Insn insn = insns[pc];
    if (insn.dst >= kNumRegs || insn.src >= kNumRegs)
      return fault(res.insns_executed, "register number out of range");
    const std::uint8_t cls = insn.insn_class();
    const std::uint8_t op = insn.alu_op();
    std::uint64_t& dst = regs[insn.dst];
    const std::uint64_t src = regs[insn.src];

    switch (cls) {
      case BPF_ALU64: {
        if (op == BPF_NEG) {
          if (insn.uses_reg_src())
            return fault(res.insns_executed, "BPF_NEG with register source");
          dst = ~dst + 1;
          ++pc;
          continue;
        }
        const std::uint64_t b =
            insn.uses_reg_src()
                ? src
                : static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(insn.imm));
        switch (op) {
          case BPF_ADD: dst += b; break;
          case BPF_SUB: dst -= b; break;
          case BPF_MUL: dst *= b; break;
          case BPF_DIV: dst = b ? dst / b : 0; break;
          case BPF_MOD: dst = b ? dst % b : dst; break;
          case BPF_OR: dst |= b; break;
          case BPF_AND: dst &= b; break;
          case BPF_XOR: dst ^= b; break;
          case BPF_MOV: dst = b; break;
          case BPF_LSH: dst <<= (b & 63); break;
          case BPF_RSH: dst >>= (b & 63); break;
          case BPF_ARSH:
            dst = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(dst) >> (b & 63));
            break;
          default:
            return fault(res.insns_executed, "bad ALU64 op");
        }
        ++pc;
        continue;
      }
      case BPF_ALU: {
        if (op == BPF_END) {
          const bool to_be = insn.uses_reg_src();
          std::uint64_t v = dst;
          switch (insn.imm) {
            case 16:
              v = kHostIsLittleEndian == to_be
                      ? bswap16(static_cast<std::uint16_t>(v))
                      : static_cast<std::uint16_t>(v);
              break;
            case 32:
              v = kHostIsLittleEndian == to_be
                      ? bswap32(static_cast<std::uint32_t>(v))
                      : static_cast<std::uint32_t>(v);
              break;
            case 64:
              v = kHostIsLittleEndian == to_be ? bswap64(v) : v;
              break;
            default:
              return fault(res.insns_executed, "bad byteswap width");
          }
          dst = v;
          ++pc;
          continue;
        }
        if (op == BPF_NEG) {
          if (insn.uses_reg_src())
            return fault(res.insns_executed, "BPF_NEG with register source");
          dst = static_cast<std::uint32_t>(
              -static_cast<std::int32_t>(static_cast<std::uint32_t>(dst)));
          ++pc;
          continue;
        }
        const std::uint32_t a = static_cast<std::uint32_t>(dst);
        const std::uint32_t b = insn.uses_reg_src()
                                    ? static_cast<std::uint32_t>(src)
                                    : static_cast<std::uint32_t>(insn.imm);
        std::uint32_t r = 0;
        switch (op) {
          case BPF_ADD: r = a + b; break;
          case BPF_SUB: r = a - b; break;
          case BPF_MUL: r = a * b; break;
          case BPF_DIV: r = b ? a / b : 0; break;
          case BPF_MOD: r = b ? a % b : a; break;
          case BPF_OR: r = a | b; break;
          case BPF_AND: r = a & b; break;
          case BPF_XOR: r = a ^ b; break;
          case BPF_MOV: r = b; break;
          case BPF_LSH: r = a << (b & 31); break;
          case BPF_RSH: r = a >> (b & 31); break;
          case BPF_ARSH:
            r = static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                           (b & 31));
            break;
          default:
            return fault(res.insns_executed, "bad ALU32 op");
        }
        dst = r;  // zero-extends
        ++pc;
        continue;
      }
      case BPF_LD: {
        if (!insn.is_ld_imm64())
          return fault(res.insns_executed, "unsupported BPF_LD mode");
        if (pc + 1 >= insns.size())
          return fault(res.insns_executed, "truncated ld_imm64");
        if (insn.src == BPF_PSEUDO_MAP_FD) {
          // Map references carry the registry id as their runtime value.
          dst = static_cast<std::uint32_t>(insn.imm);
        } else {
          dst = (static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(insns[pc + 1].imm))
                 << 32) |
                static_cast<std::uint32_t>(insn.imm);
        }
        pc += 2;
        continue;
      }
      case BPF_LDX: {
        const int n = access_size(insn.size_field());
        const std::uint64_t addr = src + insn.off;
        if (!mem_ok(addr, n, false))
          return fault(res.insns_executed,
                       "invalid read of " + std::to_string(n) + " bytes");
        const void* p = reinterpret_cast<const void*>(addr);
        switch (n) {
          case 1: dst = load_unaligned<std::uint8_t>(p); break;
          case 2: dst = load_unaligned<std::uint16_t>(p); break;
          case 4: dst = load_unaligned<std::uint32_t>(p); break;
          case 8: dst = load_unaligned<std::uint64_t>(p); break;
        }
        ++pc;
        continue;
      }
      case BPF_ST:
      case BPF_STX: {
        const int n = access_size(insn.size_field());
        const std::uint64_t addr = dst + insn.off;
        const std::uint64_t val =
            cls == BPF_STX
                ? src
                : static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(insn.imm));
        if (!mem_ok(addr, n, true))
          return fault(res.insns_executed,
                       "invalid write of " + std::to_string(n) + " bytes");
        void* p = reinterpret_cast<void*>(addr);
        switch (n) {
          case 1: store_unaligned<std::uint8_t>(p, static_cast<std::uint8_t>(val)); break;
          case 2: store_unaligned<std::uint16_t>(p, static_cast<std::uint16_t>(val)); break;
          case 4: store_unaligned<std::uint32_t>(p, static_cast<std::uint32_t>(val)); break;
          case 8: store_unaligned<std::uint64_t>(p, val); break;
        }
        ++pc;
        continue;
      }
      case BPF_JMP:
      case BPF_JMP32: {
        if (insn.is_exit()) {
          res.ret = regs[R0];
          return res;
        }
        if (insn.is_call()) {
          if (env.helpers == nullptr)
            return fault(res.insns_executed, "no helper registry");
          const HelperFn* fn = env.helpers->fn(insn.imm);
          if (fn == nullptr)
            return fault(res.insns_executed,
                         "unknown helper " + std::to_string(insn.imm));
          ++res.helper_calls;
          regs[R0] = (*fn)(env, regs[R1], regs[R2], regs[R3], regs[R4],
                           regs[R5]);
          ++pc;
          continue;
        }
        bool take;
        if (insn.is_unconditional_jump()) {
          take = true;
        } else {
          const bool is32 = cls == BPF_JMP32;
          const std::uint64_t a64 = dst;
          const std::uint64_t b64 =
              insn.uses_reg_src()
                  ? src
                  : static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(insn.imm));
          const std::uint64_t a = is32 ? static_cast<std::uint32_t>(a64) : a64;
          const std::uint64_t b = is32 ? static_cast<std::uint32_t>(b64) : b64;
          const std::int64_t sa =
              is32 ? static_cast<std::int32_t>(a64) : static_cast<std::int64_t>(a64);
          const std::int64_t sb =
              is32 ? static_cast<std::int32_t>(b64) : static_cast<std::int64_t>(b64);
          switch (op) {
            case BPF_JEQ: take = a == b; break;
            case BPF_JNE: take = a != b; break;
            case BPF_JGT: take = a > b; break;
            case BPF_JGE: take = a >= b; break;
            case BPF_JLT: take = a < b; break;
            case BPF_JLE: take = a <= b; break;
            case BPF_JSET: take = (a & b) != 0; break;
            case BPF_JSGT: take = sa > sb; break;
            case BPF_JSGE: take = sa >= sb; break;
            case BPF_JSLT: take = sa < sb; break;
            case BPF_JSLE: take = sa <= sb; break;
            default:
              return fault(res.insns_executed, "bad JMP op");
          }
        }
        pc = take ? pc + 1 + insn.off : pc + 1;
        continue;
      }
      default:
        return fault(res.insns_executed, "bad instruction class");
    }
  }
}

}  // namespace srv6bpf::ebpf
