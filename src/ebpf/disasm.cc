#include "ebpf/disasm.h"

#include <cinttypes>
#include <cstdio>

#include "ebpf/helpers.h"
#include "ebpf/jit.h"

namespace srv6bpf::ebpf {

const char* opkind_name(std::uint16_t kind) {
  static const char* const names[] = {
#define SRV6BPF_OPKIND_NAME(name) #name,
      SRV6BPF_OPKIND_LIST(SRV6BPF_OPKIND_NAME)
#undef SRV6BPF_OPKIND_NAME
  };
  return kind < kNumOpKinds ? names[kind] : "k?";
}

std::string disasm(const DecodedInsn& op) {
  char buf[128];
  const auto k = op.kind;
  int len;
  if ((k >= kAdd64R && k <= kArsh64R) || (k >= kAdd32R && k <= kArsh32R)) {
    len = std::snprintf(buf, sizeof buf, "%-10s dst=r%u src=r%u",
                        opkind_name(k), op.dst, op.src);
  } else if ((k >= kAdd64I && k <= kArsh64I) ||
             (k >= kAdd32I && k <= kArsh32I) || k == kLdImm64) {
    len = std::snprintf(buf, sizeof buf, "%-10s dst=r%u imm64=%#" PRIx64,
                        opkind_name(k), op.dst, op.imm64);
  } else if (k == kNeg64 || k == kNeg32 || (k >= kBe16 && k <= kLe64)) {
    len = std::snprintf(buf, sizeof buf, "%-10s dst=r%u", opkind_name(k),
                        op.dst);
  } else if (k >= kLd1 && k <= kLd8) {
    len = std::snprintf(buf, sizeof buf, "%-10s dst=r%u [r%u%+d]",
                        opkind_name(k), op.dst, op.src, op.off);
  } else if (k >= kSt1R && k <= kSt8R) {
    len = std::snprintf(buf, sizeof buf, "%-10s [r%u%+d] src=r%u",
                        opkind_name(k), op.dst, op.off, op.src);
  } else if (k >= kSt1I && k <= kSt8I) {
    len = std::snprintf(buf, sizeof buf, "%-10s [r%u%+d] imm=%d",
                        opkind_name(k), op.dst, op.off, op.imm);
  } else if (k == kJa) {
    len = std::snprintf(buf, sizeof buf, "%-10s -> %d", opkind_name(k),
                        op.target);
  } else if ((k >= kJeqR && k <= kJsleR) || (k >= kJeq32R && k <= kJsle32R)) {
    len = std::snprintf(buf, sizeof buf, "%-10s dst=r%u src=r%u -> %d",
                        opkind_name(k), op.dst, op.src, op.target);
  } else if ((k >= kJeqI && k <= kJsleI) || (k >= kJeq32I && k <= kJsle32I)) {
    len = std::snprintf(buf, sizeof buf, "%-10s dst=r%u imm64=%#" PRIx64
                        " -> %d",
                        opkind_name(k), op.dst, op.imm64, op.target);
  } else if (k == kCall) {
    len = std::snprintf(buf, sizeof buf, "%-10s %s", opkind_name(k),
                        helper_name(op.imm).c_str());
  } else {  // kExit (or out-of-range)
    len = std::snprintf(buf, sizeof buf, "%s", opkind_name(k));
  }
  return std::string(buf, len > 0 ? static_cast<std::size_t>(len) : 0);
}

std::string disasm(const DecodedProgram& prog) {
  std::string out;
  out.reserve(prog.size() * 40);
  char head[32];
  for (std::size_t i = 0; i < prog.size(); ++i) {
    std::snprintf(head, sizeof head, "%4zu: ", i);
    out += head;
    out += disasm(prog.data()[i]);
    out += '\n';
  }
  return out;
}

std::string DecodedProgram::dump() const { return disasm(*this); }

std::string CompiledProgram::dump() const {
  std::string out = disasm(*decoded_);
  char tail[96];
  if (has_native()) {
    std::snprintf(tail, sizeof tail, "native: %zu bytes of x86-64 code\n",
                  native_->code_size());
  } else {
    std::snprintf(tail, sizeof tail, "native: none (interpreter fallback)\n");
  }
  out += tail;
  return out;
}

}  // namespace srv6bpf::ebpf
