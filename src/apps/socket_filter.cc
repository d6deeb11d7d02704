#include "apps/socket_filter.h"

#include <algorithm>

#include "cbpf/expr.h"
#include "cbpf/translate.h"

namespace srv6bpf::apps {

SocketFilter::SocketFilter(seg6::Netns& ns, std::string name)
    : ns_(ns), name_(std::move(name)) {
  run_.env.prandom_state = &ns.prandom_state;
}

bool SocketFilter::attach(std::vector<cbpf::SockFilter> prog,
                          std::string* error) {
  cbpf::TranslateResult tr = cbpf::translate(prog);
  if (!tr.ok) {
    if (error != nullptr) *error = tr.error;
    return false;
  }
  auto load = ns_.bpf().load(name_, ebpf::ProgType::kSocketFilter,
                             std::move(tr.insns), prog.size());
  if (!load.ok()) {
    if (error != nullptr)
      *error = "translated filter rejected by verifier: " + load.verify.error;
    return false;
  }
  classic_ = std::move(prog);
  prog_ = std::move(load.prog);
  return true;
}

std::shared_ptr<SocketFilter> SocketFilter::from_expr(seg6::Netns& ns,
                                                      std::string name,
                                                      std::string_view expr,
                                                      std::string* error) {
  cbpf::CompileResult cr = cbpf::compile(expr);
  if (!cr.ok) {
    if (error != nullptr) *error = cr.error;
    return nullptr;
  }
  std::shared_ptr<SocketFilter> f(new SocketFilter(ns, std::move(name)));
  f->expr_ = std::string(expr);
  if (!f->attach(std::move(cr.insns), error)) return nullptr;
  return f;
}

std::shared_ptr<SocketFilter> SocketFilter::from_cbpf(
    seg6::Netns& ns, std::string name, std::vector<cbpf::SockFilter> prog,
    std::string* error) {
  std::shared_ptr<SocketFilter> f(new SocketFilter(ns, std::move(name)));
  if (!f->attach(std::move(prog), error)) return nullptr;
  return f;
}

std::uint32_t SocketFilter::run(const net::Packet& pkt) {
  run_.point_at(pkt);
  run_.env.now_ns = ns_.now();
  run_.env.cpu_id = ns_.current_cpu;
  const ebpf::ExecResult res = ns_.bpf().run(*prog_, run_.env, run_.ctx_addr());
  return res.aborted ? 0 : static_cast<std::uint32_t>(res.ret);
}

bool SocketFilter::accept(const net::Packet& pkt) {
  const std::uint32_t r = run(pkt);
  if (r == 0) {
    ++dropped_;
    return false;
  }
  ++accepted_;
  bytes_accepted_ += std::min<std::uint64_t>(r, pkt.size());
  return true;
}

}  // namespace srv6bpf::apps
