#include "src/workload/lemp.h"

#include <utility>

#include "src/sim/check.h"

namespace fragvisor {
namespace {

constexpr TimeNs kNginxParse = Micros(30);    // request parsing + routing
constexpr TimeNs kNginxRespond = Micros(50);  // header assembly + writev
constexpr int kPhpChunks = 8;                 // kernel interaction granularity

}  // namespace

LempNginxStream::LempNginxStream(AggregateVm* vm, const LempConfig& config)
    : vm_(vm), config_(config) {
  FV_CHECK(vm != nullptr);
  FV_CHECK_GT(config.num_php_workers, 0);
  FV_CHECK_GE(vm->num_vcpus(), config.num_php_workers + 1);
}

void LempNginxStream::Replan() {
  const int me = config_.nginx_vcpu;
  if (responses_planned_ >= config_.total_requests) {
    return;  // served everything: halt
  }
  if (vm_->HasSocketInput(me)) {
    // A PHP response is ready: stream it to the client.
    ++responses_planned_;
    Push(Op::SocketRecv());
    Push(Op::Compute(kNginxRespond + static_cast<TimeNs>(config_.response_bytes) *
                                         config_.response_cpu_ns_per_byte));
    Push(vm_->guest_kernel().KernelTouch(me, salt_++));
    Push(Op::NetSend(config_.response_bytes));
    return;
  }
  if (vm_->HasNetInput(me)) {
    // A client request: parse and hand to the next PHP worker.
    Push(Op::NetRecv());
    Push(Op::Compute(kNginxParse));
    Push(vm_->guest_kernel().KernelTouch(me, salt_++));
    const int php_vcpu = 1 + next_php_;
    next_php_ = (next_php_ + 1) % config_.num_php_workers;
    Push(Op::SocketSend(php_vcpu, config_.fcgi_request_bytes));
    return;
  }
  Push(Op::PollAny());
}

LempPhpStream::LempPhpStream(AggregateVm* vm, int vcpu, const LempConfig& config,
                             std::shared_ptr<bool> stop)
    : vm_(vm), vcpu_(vcpu), config_(config), stop_(std::move(stop)) {
  FV_CHECK(vm != nullptr);
  FV_CHECK(stop_ != nullptr);
  private_pages_ = 64;
  private_first_ = vm_->space().AllocHeapRange(private_pages_, vm_->VcpuNode(vcpu));
}

void LempPhpStream::Replan() {
  if (*stop_) {
    return;
  }
  Push(Op::SocketRecv());
  const TimeNs chunk = config_.processing_time / kPhpChunks;
  for (int k = 0; k < kPhpChunks; ++k) {
    Push(Op::Compute(chunk));
    Push(vm_->guest_kernel().KernelTouch(vcpu_, salt_++));
    Push(Op::MemWrite(private_first_ + salt_ % private_pages_));
  }
  Push(Op::SocketSend(config_.nginx_vcpu, config_.response_bytes));
}

LempClient::LempClient(AggregateVm* vm, const LempConfig& config) : vm_(vm), config_(config) {
  FV_CHECK(vm != nullptr);
  FV_CHECK(vm->net() != nullptr);
  FV_CHECK_NE(vm->config().external_node, kInvalidNode);
}

void LempClient::Start() {
  vm_->net()->set_on_wire_tx([this](uint64_t bytes) { OnResponse(bytes); });
  first_send_ = vm_->loop().now();
  const int initial = std::min(config_.concurrency, config_.total_requests);
  for (int i = 0; i < initial; ++i) {
    SendOne();
  }
}

void LempClient::SendOne() {
  FV_CHECK_LT(sent_, config_.total_requests);
  ++sent_;
  in_flight_sends_.push_back(vm_->loop().now());
  vm_->net()->SendFromExternal(config_.nginx_vcpu, config_.client_request_bytes);
}

void LempClient::OnResponse(uint64_t bytes) {
  (void)bytes;
  ++completed_;
  last_completion_ = vm_->loop().now();
  if (!in_flight_sends_.empty()) {
    // FIFO pairing approximates per-request latency under a closed loop.
    latency_ns_.Record(static_cast<double>(last_completion_ - in_flight_sends_.front()));
    in_flight_sends_.pop_front();
  }
  if (sent_ < config_.total_requests) {
    SendOne();
  }
}

double LempClient::Throughput() const {
  if (completed_ == 0 || last_completion_ <= first_send_) {
    return 0.0;
  }
  return static_cast<double>(completed_) / ToSeconds(last_completion_ - first_send_);
}

LempDeployment DeployLemp(AggregateVm& vm, const LempConfig& config) {
  LempDeployment deployment;
  deployment.php_stop = std::make_shared<bool>(false);
  vm.SetWorkload(config.nginx_vcpu, std::make_unique<LempNginxStream>(&vm, config));
  for (int w = 0; w < config.num_php_workers; ++w) {
    vm.SetWorkload(1 + w,
                   std::make_unique<LempPhpStream>(&vm, 1 + w, config, deployment.php_stop));
  }
  deployment.client = std::make_unique<LempClient>(&vm, config);
  return deployment;
}

}  // namespace fragvisor
