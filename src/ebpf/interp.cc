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
      case BPF_ALU:
      case BPF_ALU64: {
        if (op <= BPF_ARSH && (op != BPF_NEG || !insn.uses_reg_src())) {
          dst = alu(op, cls == BPF_ALU64, dst,
                    insn.uses_reg_src() ? src : sext_imm64(insn.imm));
        } else if (op == BPF_NEG) {
          return fault(res.insns_executed, "BPF_NEG with register source");
        } else if (op == BPF_END && cls == BPF_ALU) {
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
        } else {
          return fault(res.insns_executed, cls == BPF_ALU64 ? "bad ALU64 op"
                                                            : "bad ALU32 op");
        }
        ++pc;
        continue;
      }
      case BPF_LD: {
        if (!insn.is_ld_imm64())
          return fault(res.insns_executed, "unsupported BPF_LD mode");
        if (pc + 1 >= insns.size())
          return fault(res.insns_executed, "truncated ld_imm64");
        dst = ld_imm64_value(insn, insns[pc + 1]);
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
            cls == BPF_STX ? src : sext_imm64(insn.imm);
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
              insn.uses_reg_src() ? src : sext_imm64(insn.imm);
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
