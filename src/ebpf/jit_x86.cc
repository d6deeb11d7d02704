#include "ebpf/jit_x86.h"

#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "ebpf/insn.h"

namespace srv6bpf::ebpf {

#if defined(__x86_64__)

NativeCode::~NativeCode() {
  if (pages_ != nullptr) ::munmap(pages_, map_len_);
}

bool native_jit_available() noexcept {
  static const bool ok = [] {
    const long page = ::sysconf(_SC_PAGESIZE);
    if (page <= 0) return false;
    void* p = ::mmap(nullptr, static_cast<std::size_t>(page),
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                     0);
    if (p == MAP_FAILED) return false;
    const bool flips =
        ::mprotect(p, static_cast<std::size_t>(page),
                   PROT_READ | PROT_EXEC) == 0;
    ::munmap(p, static_cast<std::size_t>(page));
    return flips;
  }();
  return ok;
}

namespace {

// x86-64 register numbers (low 3 bits go in ModRM, bit 3 in REX).
enum X86Reg {
  XRAX = 0, XRCX = 1, XRDX = 2, XRBX = 3, XRSP = 4, XRBP = 5, XRSI = 6, XRDI = 7,
  XR8 = 8, XR9 = 9, XR10 = 10, XR11 = 11, XR12 = 12, XR13 = 13, XR14 = 14, XR15 = 15
};

// BPF r0..r10 -> hardware registers (the kernel bpf_jit_comp mapping).
// r10 and r11 stay free as scratch; r12 is the executed-op counter.
constexpr int kRegMap[kNumRegs] = {XRAX, XRDI, XRSI, XRDX, XRCX, XR8,
                                   XRBX, XR13, XR14, XR15, XRBP};

// Frame layout below the callee-saved pushes (rsp-relative). The frame is
// 32 or 40 bytes depending on push-count parity so rsp stays 16-byte
// aligned at helper call sites.
//   [rsp + 0]  ExecEnv*            (arg 1, needed at helper call sites)
//   [rsp + 8]  NativeCounters*     (arg 3, flushed in the epilogue)
//   [rsp + 16] helper-call count
//   [rsp + 24] rdx spill for div/mod
constexpr std::int32_t kSlotEnv = 0;
constexpr std::int32_t kSlotCounters = 8;
constexpr std::int32_t kSlotHelperCount = 16;
constexpr std::int32_t kSlotRdxSpill = 24;

class Emitter {
 public:
  std::vector<std::uint8_t> code;

  void u8(std::uint8_t b) { code.push_back(b); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  // REX prefix for a register-register form; emitted only when needed (or
  // forced, e.g. byte ops touching sil/dil).
  void rex(bool w, int reg, int rm, bool force = false) {
    const std::uint8_t b = 0x40 | (w ? 8 : 0) | (((reg >> 3) & 1) << 2) |
                           ((rm >> 3) & 1);
    if (b != 0x40 || force) u8(b);
  }
  void modrm(int mod, int reg, int rm) {
    u8(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }

  // ---- register-register forms --------------------------------------------
  // op is the /r opcode with reg as source, r/m as destination (ADD 0x01,
  // SUB 0x29, OR 0x09, AND 0x21, XOR 0x31, CMP 0x39, TEST 0x85, MOV 0x89).
  void rr(std::uint8_t op, int src, int dst, bool w) {
    rex(w, src, dst);
    u8(op);
    modrm(3, src, dst);
  }
  void mov_rr(int dst, int src, bool w) { rr(0x89, src, dst, w); }
  // Zeroes the full register (32-bit xor write clears the upper half).
  void zero(int r) { rr(0x31, r, r, false); }

  // ---- register-immediate forms -------------------------------------------
  // 0x81 /ext with a sign-extended imm32 (ADD /0, OR /1, AND /4, SUB /5,
  // XOR /6, CMP /7); uses the short 0x83 form when the immediate fits.
  void ri(int ext, int dst, std::int32_t imm, bool w) {
    rex(w, 0, dst);
    if (imm >= -128 && imm <= 127) {
      u8(0x83);
      modrm(3, ext, dst);
      u8(static_cast<std::uint8_t>(imm));
    } else {
      u8(0x81);
      modrm(3, ext, dst);
      u32(static_cast<std::uint32_t>(imm));
    }
  }
  void test_ri(int dst, std::int32_t imm, bool w) {
    rex(w, 0, dst);
    u8(0xF7);
    modrm(3, 0, dst);
    u32(static_cast<std::uint32_t>(imm));
  }
  void mov_ri32(int dst, std::uint32_t imm) {  // zero-extends
    rex(false, 0, dst);
    u8(0xB8 + (dst & 7));
    u32(imm);
  }
  void mov_ri64_sext(int dst, std::int32_t imm) {
    rex(true, 0, dst);
    u8(0xC7);
    modrm(3, 0, dst);
    u32(static_cast<std::uint32_t>(imm));
  }
  void mov_ri64(int dst, std::uint64_t imm) {
    if (imm <= 0xffffffffull) {
      mov_ri32(dst, static_cast<std::uint32_t>(imm));
    } else if (static_cast<std::int64_t>(imm) ==
               static_cast<std::int32_t>(imm)) {
      mov_ri64_sext(dst, static_cast<std::int32_t>(imm));
    } else {
      rex(true, 0, dst);
      u8(0xB8 + (dst & 7));
      u64(imm);
    }
  }

  // ---- multiply / negate / shifts / div -----------------------------------
  void imul_rr(int dst, int src, bool w) {
    rex(w, dst, src);
    u8(0x0F);
    u8(0xAF);
    modrm(3, dst, src);
  }
  void imul_rri(int dst, std::int32_t imm, bool w) {
    rex(w, dst, dst);
    u8(0x69);
    modrm(3, dst, dst);
    u32(static_cast<std::uint32_t>(imm));
  }
  void neg(int dst, bool w) {
    rex(w, 0, dst);
    u8(0xF7);
    modrm(3, 3, dst);
  }
  // ext: SHL /4, SHR /5, SAR /7. Hardware masks the cl count to the operand
  // width (&63 / &31), which is exactly the eBPF semantics.
  void shift_cl(int ext, int dst, bool w) {
    rex(w, 0, dst);
    u8(0xD3);
    modrm(3, ext, dst);
  }
  void shift_imm(int ext, int dst, std::uint8_t k, bool w) {
    rex(w, 0, dst);
    u8(0xC1);
    modrm(3, ext, dst);
    u8(k);
  }
  void div_r(int r, bool w) {  // unsigned rdx:rax / r
    rex(w, 0, r);
    u8(0xF7);
    modrm(3, 6, r);
  }
  void bswap(int r, bool w) {
    rex(w, 0, r);
    u8(0x0F);
    u8(0xC8 + (r & 7));
  }
  void ror16_imm8(int r, std::uint8_t k) {
    u8(0x66);
    rex(false, 0, r);
    u8(0xC1);
    modrm(3, 1, r);
    u8(k);
  }
  void movzx16_rr(int dst, int src) {
    rex(false, dst, src);
    u8(0x0F);
    u8(0xB7);
    modrm(3, dst, src);
  }

  // ---- memory operands: [base + disp] -------------------------------------
  void mem_prefix(int reg, int base, bool w, bool opsize16, bool force_rex) {
    if (opsize16) u8(0x66);
    rex(w, reg, base, force_rex);
  }
  void mem_modrm(int reg, int base, std::int32_t disp) {
    const bool d8 = disp >= -128 && disp <= 127;
    const int mod = d8 ? 1 : 2;
    if ((base & 7) == XRSP) {
      modrm(mod, reg, XRSP);
      u8(0x24);  // SIB: scale 0, no index, base rsp/r12
    } else {
      modrm(mod, reg, base);
    }
    if (d8)
      u8(static_cast<std::uint8_t>(disp));
    else
      u32(static_cast<std::uint32_t>(disp));
  }
  // MOV r, [base+disp] (w picks 32/64); MOVZX for 8/16-bit loads.
  void load(int size, int dst, int base, std::int32_t disp) {
    mem_prefix(dst, base, size == 8, false, false);
    if (size == 1) {
      u8(0x0F);
      u8(0xB6);
    } else if (size == 2) {
      u8(0x0F);
      u8(0xB7);
    } else {
      u8(0x8B);
    }
    mem_modrm(dst, base, disp);
  }
  void store_reg(int size, int base, std::int32_t disp, int src) {
    // Byte stores from sil/dil/bpl/spl need a REX prefix even without high
    // registers (without it the encoding means ah/ch/dh/bh).
    const bool force = size == 1 && (src & 7) >= 4 && src < 8;
    mem_prefix(src, base, size == 8, size == 2, force);
    u8(size == 1 ? 0x88 : 0x89);
    mem_modrm(src, base, disp);
  }
  void store_imm(int size, int base, std::int32_t disp, std::int32_t imm) {
    mem_prefix(0, base, size == 8, size == 2, false);
    u8(size == 1 ? 0xC6 : 0xC7);
    mem_modrm(0, base, disp);
    if (size == 1)
      u8(static_cast<std::uint8_t>(imm));
    else if (size == 2)
      u16(static_cast<std::uint16_t>(imm));
    else
      u32(static_cast<std::uint32_t>(imm));  // size 8 sign-extends imm32
  }
  void add_mem_reg64(int base, std::int32_t disp, int src) {
    mem_prefix(src, base, true, false, false);
    u8(0x01);
    mem_modrm(src, base, disp);
  }
  void inc_mem64(int base, std::int32_t disp) {
    mem_prefix(0, base, true, false, false);
    u8(0xFF);
    mem_modrm(0, base, disp);
  }

  // ---- control flow -------------------------------------------------------
  void push(int r) {
    if (r >= 8) u8(0x41);
    u8(0x50 + (r & 7));
  }
  void pop(int r) {
    if (r >= 8) u8(0x41);
    u8(0x58 + (r & 7));
  }
  void call_reg(int r) {
    rex(false, 0, r);
    u8(0xFF);
    modrm(3, 2, r);
  }
  void ret() { u8(0xC3); }

  // jcc/jmp with a rel32 placeholder; returns the fixup position.
  std::size_t jcc(std::uint8_t cc) {  // cc = low nibble of 0F 8x
    u8(0x0F);
    u8(0x80 | cc);
    const std::size_t pos = code.size();
    u32(0);
    return pos;
  }
  std::size_t jmp() {
    u8(0xE9);
    const std::size_t pos = code.size();
    u32(0);
    return pos;
  }
  void patch_rel32(std::size_t pos, std::size_t target) {
    const std::int64_t rel = static_cast<std::int64_t>(target) -
                             (static_cast<std::int64_t>(pos) + 4);
    const auto r32 = static_cast<std::uint32_t>(rel);
    std::memcpy(code.data() + pos, &r32, 4);
  }
  void bind_here(std::size_t pos) { patch_rel32(pos, code.size()); }
};

// x86 condition-code nibbles for 0F 8x jcc.
constexpr std::uint8_t CC_E = 0x4, CC_NE = 0x5, CC_A = 0x7, CC_AE = 0x3,
                       CC_B = 0x2, CC_BE = 0x6, CC_G = 0xF, CC_GE = 0xD,
                       CC_L = 0xC, CC_LE = 0xE, CC_Z = 0x4;

// Condition code for a conditional jump's op; JSET returns CC_NE (preceded
// by TEST instead of CMP).
std::uint8_t jump_cc(std::uint8_t op) {
  switch (op) {
    case BPF_JEQ: return CC_E;
    case BPF_JNE: return CC_NE;
    case BPF_JGT: return CC_A;
    case BPF_JGE: return CC_AE;
    case BPF_JLT: return CC_B;
    case BPF_JLE: return CC_BE;
    case BPF_JSET: return CC_NE;
    case BPF_JSGT: return CC_G;
    case BPF_JSGE: return CC_GE;
    case BPF_JSLT: return CC_L;
    default: return CC_LE;  // BPF_JSLE
  }
}

// dst <<= (src & mask) with rcx (BPF r4) pressure resolved through r10.
void emit_shift_reg(Emitter& e, int ext, int dst, int src, bool w) {
  if (src == XRCX) {
    if (dst == XRCX) {
      // Value and count are the same register.
      e.mov_rr(XR10, XRCX, true);
      e.shift_cl(ext, XR10, w);
      e.mov_rr(XRCX, XR10, true);
    } else {
      e.shift_cl(ext, dst, w);  // count already in cl
    }
  } else {
    e.mov_rr(XR10, XRCX, true);  // save BPF r4 (or the dst value if dst==rcx)
    e.mov_rr(XRCX, src, true);
    if (dst == XRCX) {
      e.shift_cl(ext, XR10, w);
      e.mov_rr(XRCX, XR10, true);
    } else {
      e.shift_cl(ext, dst, w);
      e.mov_rr(XRCX, XR10, true);
    }
  }
}

// LSH/RSH/ARSH (ext SHL /4, SHR /5, SAR /7). The verifier keeps an immediate
// count below the operand width.
void emit_shift(Emitter& e, int ext, const Insn& insn, bool w) {
  const int dst = kRegMap[insn.dst];
  if (insn.uses_reg_src()) {
    emit_shift_reg(e, ext, dst, kRegMap[insn.src], w);
    return;
  }
  const auto k = static_cast<std::uint8_t>(insn.imm & (w ? 63 : 31));
  if (k != 0)
    e.shift_imm(ext, dst, k, w);  // a 32-bit write zero-extends
  else if (!w)
    e.mov_rr(dst, dst, false);  // shift by 0 still truncates to u32
}

// eBPF division semantics: x / 0 == 0, x % 0 == x (mod32 truncates dst).
// x86 DIV uses rdx:rax implicitly and traps on zero, so the divisor is
// snapshotted into r11, and rax/rdx are preserved through r10 and a frame
// slot. Only a register divisor gets the inline zero test: the verifier
// rejects an immediate 0, dead code included.
void emit_div_mod(Emitter& e, const Insn& insn, bool is64, bool is_mod) {
  const int dst = kRegMap[insn.dst];
  const bool reg_src = insn.uses_reg_src();
  std::size_t zero_fix = 0;
  if (reg_src) {
    e.mov_rr(XR11, kRegMap[insn.src], is64);  // 32-bit mov truncates it
    e.rr(0x85, XR11, XR11, is64);              // test r11, r11
    zero_fix = e.jcc(CC_Z);
  } else {
    e.mov_ri64(XR11, is64 ? sext_imm64(insn.imm)
                          : static_cast<std::uint32_t>(insn.imm));
  }

  const bool save_rax = dst != XRAX;
  const bool save_rdx = dst != XRDX;
  if (save_rdx) e.store_reg(8, XRSP, kSlotRdxSpill, XRDX);
  if (save_rax) e.mov_rr(XR10, XRAX, true);
  e.mov_rr(XRAX, dst, is64);  // dividend (truncated for the 32-bit forms)
  e.zero(XRDX);
  e.div_r(XR11, is64);
  e.mov_rr(dst, is_mod ? XRDX : XRAX, is64);  // 32-bit mov zero-extends
  if (save_rax) e.mov_rr(XRAX, XR10, true);
  if (save_rdx) e.load(8, XRDX, XRSP, kSlotRdxSpill);

  if (reg_src) {
    const std::size_t done = e.jmp();
    e.bind_here(zero_fix);
    if (!is_mod)
      e.zero(dst);
    else if (!is64)
      e.mov_rr(dst, dst, false);
    e.bind_here(done);
  }
}

// BPF_END: x86-64 is little-endian, so "be" swaps and "le" truncates;
// widths 16 and 32 clear the upper bits like the interpreter's
// uint16/uint32 casts.
void emit_byteswap(Emitter& e, int dst, std::int32_t width, bool to_be) {
  switch (width) {
    case 16:
      if (to_be) e.ror16_imm8(dst, 8);
      e.movzx16_rr(dst, dst);
      break;
    case 32:
      if (to_be)
        e.bswap(dst, false);
      else
        e.mov_rr(dst, dst, false);
      break;
    default:  // 64
      if (to_be) e.bswap(dst, true);
      break;
  }
}

// One ALU or ALU64 instruction. The 32-bit forms rely on x86-64 zeroing the
// upper half on every 32-bit register write (the kernel JIT's trick). The
// x86 imm32 forms sign-extend for 64-bit ops and the 32-bit ops use the low
// word, which is eBPF's immediate semantics at both widths.
void emit_alu(Emitter& e, const Insn& insn) {
  const bool w = insn.insn_class() == BPF_ALU64;
  const bool x = insn.uses_reg_src();
  const int dst = kRegMap[insn.dst];
  const int src = kRegMap[insn.src];
  const std::int32_t imm = insn.imm;
  switch (insn.alu_op()) {
    // Register form: the x86 /r opcode; immediate form: 0x81 /ext.
    case BPF_ADD: x ? e.rr(0x01, src, dst, w) : e.ri(0, dst, imm, w); break;
    case BPF_SUB: x ? e.rr(0x29, src, dst, w) : e.ri(5, dst, imm, w); break;
    case BPF_OR: x ? e.rr(0x09, src, dst, w) : e.ri(1, dst, imm, w); break;
    case BPF_AND: x ? e.rr(0x21, src, dst, w) : e.ri(4, dst, imm, w); break;
    case BPF_XOR: x ? e.rr(0x31, src, dst, w) : e.ri(6, dst, imm, w); break;
    case BPF_MUL: x ? e.imul_rr(dst, src, w) : e.imul_rri(dst, imm, w); break;
    case BPF_MOV:
      if (x)
        e.mov_rr(dst, src, w);
      else if (w)
        e.mov_ri64_sext(dst, imm);
      else
        e.mov_ri32(dst, static_cast<std::uint32_t>(imm));
      break;
    case BPF_LSH: emit_shift(e, 4, insn, w); break;
    case BPF_RSH: emit_shift(e, 5, insn, w); break;
    case BPF_ARSH: emit_shift(e, 7, insn, w); break;
    case BPF_DIV: emit_div_mod(e, insn, w, false); break;
    case BPF_MOD: emit_div_mod(e, insn, w, true); break;
    case BPF_NEG: e.neg(dst, w); break;
    case BPF_END: emit_byteswap(e, dst, imm, x); break;
  }
}

}  // namespace

std::unique_ptr<const NativeCode> compile_native(
    const std::vector<Insn>& insns, const HelperRegistry& helpers) {
  if (!native_jit_available()) return nullptr;

  const std::size_t n = insns.size();
  const auto jump_target = [&](std::size_t i) {
    return static_cast<std::int32_t>(i) + 1 + insns[i].off;
  };

  // Basic blocks start at jump targets; the executed-instruction
  // accumulator pending in r12 must be flushed before every such label (the
  // fall-through path owns those counts, jumpers must not inherit them) and
  // before every control transfer. An ld_imm64 pair counts as one
  // instruction, as in the interpreter: this pre-pass and the body skip its
  // second slot.
  std::vector<bool> is_target(n, false);
  bool has_calls = false;
  bool used[kNumRegs] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const Insn& insn = insns[i];
    if (insn.is_jump())
      is_target[static_cast<std::size_t>(jump_target(i))] = true;
    if (insn.is_call()) has_calls = true;
    used[insn.dst] = true;
    used[insn.src] = true;
    if (insn.is_ld_imm64()) ++i;
  }

  // Like the kernel JIT, only the callee-saved hardware registers the
  // program actually references are saved/restored; r12 (the executed-op
  // accumulator) is always clobbered. The frame size keeps rsp 16-byte
  // aligned at helper call sites for any parity of the push count.
  std::vector<int> saved;
  if (used[10]) saved.push_back(XRBP);
  if (used[6]) saved.push_back(XRBX);
  saved.push_back(XR12);
  if (used[7]) saved.push_back(XR13);
  if (used[8]) saved.push_back(XR14);
  if (used[9]) saved.push_back(XR15);
  const std::int32_t frame = saved.size() % 2 == 0 ? 40 : 32;

  Emitter e;
  e.code.reserve(64 * n + 128);

  // ---- prologue -----------------------------------------------------------
  // Entry ABI: rdi=ExecEnv*, rsi=ctx, rdx=NativeCounters*, rcx=stack top.
  for (const int r : saved) e.push(r);
  e.ri(5, XRSP, frame, true);                  // sub rsp, frame
  if (has_calls) {
    // Only helper call sites read these two slots.
    e.store_reg(8, XRSP, kSlotEnv, XRDI);
    e.store_imm(8, XRSP, kSlotHelperCount, 0);
  }
  e.store_reg(8, XRSP, kSlotCounters, XRDX);
  if (used[10]) e.mov_rr(XRBP, XRCX, true);    // BPF r10 = stack top
  e.mov_rr(XRDI, XRSI, true);                  // BPF r1 = ctx
  // The remaining BPF registers are deliberately NOT zeroed (like the kernel
  // JIT): the verifier proves no register is read before it is written, so
  // whatever the callee-saved pushes left in them is unobservable. Only the
  // r12 executed-op accumulator needs a defined start.
  e.zero(XR12);

  // ---- body ---------------------------------------------------------------
  std::vector<std::size_t> insn_offset(n, 0);
  struct Fixup {
    std::size_t pos;
    std::int32_t target;  // instruction index, or -1 for the epilogue
  };
  std::vector<Fixup> fixups;
  std::int32_t pending = 0;  // instructions executed since the last flush

  const auto flush = [&] {
    if (pending != 0) e.ri(0, XR12, pending, true);  // add r12, pending
    pending = 0;
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (is_target[i]) flush();
    insn_offset[i] = e.code.size();
    ++pending;

    const Insn& insn = insns[i];
    const int dst = kRegMap[insn.dst];
    const int src = kRegMap[insn.src];
    const int size = access_size(insn.size_field());

    switch (insn.insn_class()) {
      case BPF_ALU:
      case BPF_ALU64:
        emit_alu(e, insn);
        break;

      // ---- memory (unchecked: the verifier proved every access) ----
      case BPF_LDX: e.load(size, dst, src, insn.off); break;
      case BPF_STX: e.store_reg(size, dst, insn.off, src); break;
      case BPF_ST: e.store_imm(size, dst, insn.off, insn.imm); break;

      case BPF_LD:  // ld_imm64, the one BPF_LD the verifier accepts
        e.mov_ri64(dst, ld_imm64_value(insn, insns[i + 1]));
        ++i;  // its second slot
        break;

      case BPF_JMP:
      case BPF_JMP32: {
        if (insn.is_call()) {
          // Direct call to the registered helper. C ABI: the five BPF
          // argument registers shift down one slot and the ExecEnv* becomes
          // arg 1; rax carries the return value straight into BPF r0. R1-R5
          // are caller-saved in both ABIs, R6-R9 are callee-saved in both.
          e.inc_mem64(XRSP, kSlotHelperCount);
          e.mov_rr(XR9, XR8, true);    // arg6 = BPF r5
          e.mov_rr(XR8, XRCX, true);   // arg5 = BPF r4
          e.mov_rr(XRCX, XRDX, true);  // arg4 = BPF r3
          e.mov_rr(XRDX, XRSI, true);  // arg3 = BPF r2
          e.mov_rr(XRSI, XRDI, true);  // arg2 = BPF r1
          e.load(8, XRDI, XRSP, kSlotEnv);
          e.mov_ri64(XRAX,
                     reinterpret_cast<std::uint64_t>(*helpers.fn(insn.imm)));
          e.call_reg(XRAX);
          break;
        }
        // Every other JMP transfers control: flush first (the ADD also
        // clobbers the flags a compare sets).
        flush();
        if (insn.is_exit()) {
          fixups.push_back({e.jmp(), -1});
          break;
        }
        if (insn.is_unconditional_jump()) {
          fixups.push_back({e.jmp(), jump_target(i)});
          break;
        }
        // 64-bit compares sign-extend the imm32, as eBPF does; the 32-bit
        // forms compare low words only.
        const bool w = insn.insn_class() == BPF_JMP;
        const bool is_set = insn.alu_op() == BPF_JSET;
        if (insn.uses_reg_src())
          e.rr(is_set ? 0x85 : 0x39, src, dst, w);  // test / cmp
        else if (is_set)
          e.test_ri(dst, insn.imm, w);
        else
          e.ri(7, dst, insn.imm, w);
        fixups.push_back({e.jcc(jump_cc(insn.alu_op())), jump_target(i)});
        break;
      }
    }
  }

  // ---- epilogue (shared by every exit) ------------------------------------
  const std::size_t epilogue = e.code.size();
  e.load(8, XR11, XRSP, kSlotCounters);
  e.add_mem_reg64(XR11, 0, XR12);  // counters->insns += r12
  if (has_calls) {
    e.load(8, XR10, XRSP, kSlotHelperCount);
    e.add_mem_reg64(XR11, 8, XR10);  // counters->helper_calls += frame slot
  }
  e.ri(0, XRSP, frame, true);
  for (auto it = saved.rbegin(); it != saved.rend(); ++it) e.pop(*it);
  e.ret();

  for (const Fixup& f : fixups)
    e.patch_rel32(f.pos, f.target < 0
                             ? epilogue
                             : insn_offset[static_cast<std::size_t>(f.target)]);

  // ---- map W, copy, flip to X ---------------------------------------------
  const long page = ::sysconf(_SC_PAGESIZE);
  const std::size_t psz = page > 0 ? static_cast<std::size_t>(page) : 4096;
  const std::size_t len = (e.code.size() + psz - 1) / psz * psz;
  void* mem = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return nullptr;
  std::memcpy(mem, e.code.data(), e.code.size());
  if (::mprotect(mem, len, PROT_READ | PROT_EXEC) != 0) {
    ::munmap(mem, len);
    return nullptr;
  }

  std::unique_ptr<NativeCode> out(new NativeCode());
  out->pages_ = mem;
  out->map_len_ = len;
  out->code_size_ = e.code.size();
  out->entry_ = reinterpret_cast<NativeCode::Entry>(mem);
  out->has_calls_ = has_calls;
  return out;
}

#else  // !__x86_64__

NativeCode::~NativeCode() = default;

bool native_jit_available() noexcept { return false; }

std::unique_ptr<const NativeCode> compile_native(const std::vector<Insn>&,
                                                 const HelperRegistry&) {
  return nullptr;
}

#endif

}  // namespace srv6bpf::ebpf
