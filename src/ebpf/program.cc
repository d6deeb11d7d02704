#include "ebpf/program.h"

namespace srv6bpf::ebpf {

const char* prog_type_name(ProgType t) noexcept {
  switch (t) {
    case ProgType::kLwtXmit: return "lwt_xmit";
    case ProgType::kLwtSeg6Local: return "lwt_seg6local";
    case ProgType::kSocketFilter: return "socket_filter";
  }
  return "?";
}

}  // namespace srv6bpf::ebpf
