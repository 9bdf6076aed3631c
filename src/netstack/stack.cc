#include "src/netstack/stack.h"

#include <algorithm>
#include <cstring>

#include "src/common/clock.h"
#include "src/common/logging.h"
#include "src/obs/metrics.h"

namespace asnet {
namespace {

// Seq number of the first byte held in the send buffer.
// (Stored per-tcb as `data_base`; helper docs only.)

// Upper bound on the poller's event wait. With no packets and no armed TCP
// timers the poller sleeps this long per iteration — a hygiene cap against a
// lost wakeup, not a tick (an idle stack does ~2 iterations/sec instead of
// the 1000/sec the old 1 ms tick cost).
constexpr std::chrono::nanoseconds kMaxIdleWait =
    std::chrono::milliseconds(500);

// Process-wide packet counters (all stacks aggregate into one series; the
// per-stack view stays in NetStack::Stats). Registry references are stable,
// so resolve them once.
struct NetCounters {
  asobs::Counter& tx_packets;
  asobs::Counter& tx_bytes;
  asobs::Counter& rx_packets;
  asobs::Counter& rx_bytes;
  asobs::Counter& poll_iterations;
  // RX drops by reason — a packet the stack received but never delivered
  // used to vanish silently; these make every drop path observable.
  asobs::Counter& rx_dropped_bad_ipv4;
  asobs::Counter& rx_dropped_dst_mismatch;
  asobs::Counter& rx_dropped_bad_tcp;
  asobs::Counter& rx_dropped_bad_udp;
  asobs::Counter& rx_dropped_no_listener;
  // Segments the reassembler declines to copy: out-of-order arrivals that
  // go-back-N would discard anyway, and in-order payload past the receive
  // buffer cap.
  asobs::Counter& rx_dropped_out_of_order;
  asobs::Counter& rx_dropped_window_full;
  // TCP payload bytes by path: zerocopy = gather frames over pinned memory,
  // copy = legacy contiguous segments. TX counts bytes put on the wire
  // (retransmits included), RX counts bytes consumed by the reader.
  asobs::Counter& tx_payload_zerocopy;
  asobs::Counter& tx_payload_copy;
  asobs::Counter& rx_payload_zerocopy;
  asobs::Counter& rx_payload_copy;
  // Zero-copy chunks still un-ACKed when their connection was torn down:
  // the pin released at teardown instead of at the covering ACK.
  asobs::Counter& tx_pins_aborted;
  // Time senders spent blocked on a full send buffer (kSendBufferCap).
  asobs::LatencyHistogram& tx_backpressure;
};

NetCounters& Counters() {
  static auto* counters = new NetCounters{
      asobs::Registry::Global().GetCounter("alloy_net_tx_packets_total"),
      asobs::Registry::Global().GetCounter("alloy_net_tx_bytes_total"),
      asobs::Registry::Global().GetCounter("alloy_net_rx_packets_total"),
      asobs::Registry::Global().GetCounter("alloy_net_rx_bytes_total"),
      asobs::Registry::Global().GetCounter("alloy_net_poll_iterations_total"),
      asobs::Registry::Global().GetCounter("alloy_net_rx_dropped_total",
                                           {{"reason", "bad_ipv4"}}),
      asobs::Registry::Global().GetCounter("alloy_net_rx_dropped_total",
                                           {{"reason", "dst_mismatch"}}),
      asobs::Registry::Global().GetCounter("alloy_net_rx_dropped_total",
                                           {{"reason", "bad_tcp"}}),
      asobs::Registry::Global().GetCounter("alloy_net_rx_dropped_total",
                                           {{"reason", "bad_udp"}}),
      asobs::Registry::Global().GetCounter("alloy_net_rx_dropped_total",
                                           {{"reason", "no_listener"}}),
      asobs::Registry::Global().GetCounter("alloy_net_rx_dropped_total",
                                           {{"reason", "out_of_order"}}),
      asobs::Registry::Global().GetCounter("alloy_net_rx_dropped_total",
                                           {{"reason", "window_full"}}),
      asobs::Registry::Global().GetCounter("alloy_net_tx_bytes_total",
                                           {{"path", "zerocopy"}}),
      asobs::Registry::Global().GetCounter("alloy_net_tx_bytes_total",
                                           {{"path", "copy"}}),
      asobs::Registry::Global().GetCounter("alloy_net_rx_bytes_total",
                                           {{"path", "zerocopy"}}),
      asobs::Registry::Global().GetCounter("alloy_net_rx_bytes_total",
                                           {{"path", "copy"}}),
      asobs::Registry::Global().GetCounter("alloy_net_tx_pins_aborted_total"),
      asobs::Registry::Global().GetHistogram(
          "alloy_net_tx_backpressure_nanos"),
  };
  return *counters;
}

}  // namespace

// `data_base` lives in the Tcb as snd_una trimming state; declared here to
// keep the header compact.
struct TcbExtra {};

NetStack::NetStack(std::shared_ptr<TunPort> port) : port_(std::move(port)) {
  poller_ = std::thread([this] { PollerLoop(); });
}

NetStack::~NetStack() {
  running_.store(false);
  port_->Detach();
  poller_.join();
}

NetStack::Stats NetStack::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

// ------------------------------------------------------------- public API

asbase::Result<std::unique_ptr<TcpListener>> NetStack::Listen(uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (port == 0) {
    return asbase::InvalidArgument("cannot listen on port 0");
  }
  auto [it, inserted] = listeners_.emplace(port, Listener{});
  if (!inserted) {
    return asbase::AlreadyExists("port " + std::to_string(port) +
                                 " already has a listener");
  }
  return std::unique_ptr<TcpListener>(new TcpListener(this, port));
}

asbase::Result<std::unique_ptr<TcpConnection>> NetStack::Connect(
    Ipv4Addr dst, uint16_t dst_port, std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  const uint16_t local_port = AllocatePortLocked();
  const uint64_t id = next_tcb_id_++;
  auto tcb = std::make_unique<Tcb>();
  tcb->id = id;
  tcb->state = TcpState::kSynSent;
  tcb->remote_ip = dst;
  tcb->remote_port = dst_port;
  tcb->local_port = local_port;
  const uint32_t iss = next_iss_;
  next_iss_ += 64000;
  tcb->snd_una = iss;
  tcb->snd_nxt = iss + 1;
  tcb->rcv_nxt = 0;
  Tcb& ref = *tcb;
  tcbs_[id] = std::move(tcb);
  tcb_index_[{dst, dst_port, local_port}] = id;

  SendSegmentLocked(ref, kTcpSyn, iss, {});
  ArmTimerLocked(ref);

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(timeout);
  cv_.wait_until(lock, deadline, [&] {
    return ref.synchronized || ref.aborted ||
           ref.state == TcpState::kClosed;
  });
  if (!ref.synchronized || ref.aborted) {
    DestroyTcbLocked(id);
    return asbase::Unavailable("connect to " + AddrToString(dst) + ":" +
                               std::to_string(dst_port) +
                               " failed (timeout or reset)");
  }
  return std::unique_ptr<TcpConnection>(
      new TcpConnection(this, id, dst, dst_port, local_port));
}

asbase::Result<std::unique_ptr<UdpSocket>> NetStack::UdpBind(uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (port == 0) {
    port = AllocatePortLocked();
  }
  auto [it, inserted] = udp_pcbs_.emplace(port, UdpPcb{});
  if (!inserted) {
    return asbase::AlreadyExists("UDP port " + std::to_string(port) +
                                 " is bound");
  }
  return std::unique_ptr<UdpSocket>(new UdpSocket(this, port));
}

asbase::Result<int64_t> NetStack::Ping(Ipv4Addr dst,
                                       std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  const uint16_t seq = ++ping_seq_;
  ping_waiters_[seq] = 0;
  const int64_t start = asbase::MonoNanos();
  const uint8_t payload[8] = {'a', 'l', 'l', 'o', 'y', 'p', 'n', 'g'};
  auto icmp = BuildIcmpEcho(false, ping_id_, seq, payload);
  Ipv4Header ip;
  ip.src = addr();
  ip.dst = dst;
  ip.proto = IpProto::kIcmp;
  Transmit(BuildIpv4(ip, icmp));

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(timeout);
  ping_cv_.wait_until(lock, deadline,
                      [&] { return ping_waiters_[seq] != 0; });
  const int64_t reply = ping_waiters_[seq];
  ping_waiters_.erase(seq);
  if (reply == 0) {
    return asbase::Unavailable("ping timeout");
  }
  return reply - start;
}

// ---------------------------------------------------------------- helpers

uint16_t NetStack::AllocatePortLocked() {
  for (int i = 0; i < 20000; ++i) {
    uint16_t candidate = next_ephemeral_++;
    if (next_ephemeral_ < 40000) {
      next_ephemeral_ = 40000;
    }
    bool taken = listeners_.count(candidate) > 0;
    for (const auto& [key, id] : tcb_index_) {
      if (std::get<2>(key) == candidate) {
        taken = true;
        break;
      }
    }
    if (!taken) {
      return candidate;
    }
  }
  AS_LOG(kError) << "ephemeral port space exhausted";
  return 0;
}

NetStack::Tcb* NetStack::FindTcbLocked(Ipv4Addr remote_ip,
                                       uint16_t remote_port,
                                       uint16_t local_port) {
  auto it = tcb_index_.find({remote_ip, remote_port, local_port});
  if (it == tcb_index_.end()) {
    return nullptr;
  }
  auto tcb_it = tcbs_.find(it->second);
  return tcb_it == tcbs_.end() ? nullptr : tcb_it->second.get();
}

void NetStack::DestroyTcbLocked(uint64_t id) {
  auto it = tcbs_.find(id);
  if (it == tcbs_.end()) {
    return;
  }
  Tcb& tcb = *it->second;
  // Chunks still queued here are un-ACKed (the ACK trim pops acknowledged
  // ones); their pins release on erase below — at teardown, not at the
  // covering ACK. Count the zero-copy ones so leaked-looking early releases
  // are visible.
  size_t aborted_pins = 0;
  for (const TxChunk& chunk : tcb.send_chunks) {
    if (chunk.zerocopy) {
      ++aborted_pins;
    }
  }
  if (aborted_pins > 0) {
    Counters().tx_pins_aborted.Add(aborted_pins);
  }
  tcb_index_.erase({tcb.remote_ip, tcb.remote_port, tcb.local_port});
  tcbs_.erase(it);
}

void NetStack::SendSegmentLocked(Tcb& tcb, uint8_t flags, uint32_t seq,
                                 std::span<const uint8_t> payload) {
  TcpHeader header;
  header.src_port = tcb.local_port;
  header.dst_port = tcb.remote_port;
  header.seq = seq;
  header.ack = tcb.rcv_nxt;
  header.flags = flags;
  header.window = static_cast<uint16_t>(kWindow);
  auto segment = BuildTcp(addr(), tcb.remote_ip, header, payload);
  Ipv4Header ip;
  ip.src = addr();
  ip.dst = tcb.remote_ip;
  ip.proto = IpProto::kTcp;
  Transmit(BuildIpv4(ip, segment));
  ++stats_.segments_sent;
}

void NetStack::SendGatherSegmentLocked(Tcb& tcb, uint8_t flags, uint32_t seq,
                                       std::vector<PayloadRef> payload) {
  TcpHeader header;
  header.src_port = tcb.local_port;
  header.dst_port = tcb.remote_port;
  header.seq = seq;
  header.ack = tcb.rcv_nxt;
  header.flags = flags;
  header.window = static_cast<uint16_t>(kWindow);
  // checksum_offload: the fabric is an in-process queue, the NIC-offload
  // analogue — no payload read for checksumming, no payload copy at all.
  Transmit(BuildTcpPacket(addr(), tcb.remote_ip, header, std::move(payload),
                          /*checksum_offload=*/true));
  ++stats_.segments_sent;
}

size_t NetStack::TransmitChunkAtLocked(Tcb& tcb, uint32_t seq, size_t offset,
                                       size_t limit) {
  size_t skip = offset;
  auto it = tcb.send_chunks.begin();
  while (it != tcb.send_chunks.end() && skip >= it->bytes.size()) {
    skip -= it->bytes.size();
    ++it;
  }
  if (it == tcb.send_chunks.end() || limit == 0) {
    return 0;
  }
  if (it->zerocopy) {
    // Jumbo gather segment over consecutive pinned extents: the frame
    // references slot memory directly; retransmission re-enters here and
    // re-reads the same memory.
    size_t budget = std::min(limit, kZeroCopySegBytes);
    std::vector<PayloadRef> refs;
    size_t total = 0;
    while (it != tcb.send_chunks.end() && it->zerocopy && budget > 0) {
      const size_t take = std::min(it->bytes.size() - skip, budget);
      refs.push_back(PayloadRef{it->bytes.subspan(skip, take), it->pin});
      total += take;
      budget -= take;
      skip = 0;
      ++it;
    }
    SendGatherSegmentLocked(tcb, kTcpAck | kTcpPsh, seq, std::move(refs));
    Counters().tx_payload_zerocopy.Add(total);
    return total;
  }
  // Copying path: legacy contiguous MSS segment, assembled from consecutive
  // copy chunks (stops at the first zero-copy chunk so paths never mix
  // within one segment).
  const size_t budget = std::min(limit, kMss);
  std::vector<uint8_t> payload;
  payload.reserve(budget);
  while (it != tcb.send_chunks.end() && !it->zerocopy &&
         payload.size() < budget) {
    const size_t take =
        std::min(it->bytes.size() - skip, budget - payload.size());
    payload.insert(payload.end(), it->bytes.begin() + static_cast<long>(skip),
                   it->bytes.begin() + static_cast<long>(skip + take));
    skip = 0;
    ++it;
  }
  SendSegmentLocked(tcb, kTcpAck | kTcpPsh, seq, payload);
  Counters().tx_payload_copy.Add(payload.size());
  return payload.size();
}

void NetStack::AppendRecvLocked(Tcb& tcb, std::span<const uint8_t> data) {
  // Land the wire bytes into pool-owned blocks (the DMA-into-buffer step);
  // readers take these blocks by reference via RecvZeroCopy, so this is the
  // last copy the payload sees on the RX side.
  asalloc::BufferPool& pool = asalloc::BufferPool::Global();
  const size_t block_bytes = pool.block_bytes();
  size_t done = 0;
  while (done < data.size()) {
    if (tcb.land_block == nullptr || tcb.land_fill == block_bytes) {
      tcb.land_block = pool.Take();
      tcb.land_fill = 0;
    }
    const size_t take =
        std::min(data.size() - done, block_bytes - tcb.land_fill);
    std::memcpy(tcb.land_block.get() + tcb.land_fill, data.data() + done,
                take);
    // Extend the previous slice when this lands flush against it in the
    // same block — keeps RecvZeroCopy extents segment-spanningly large.
    bool merged = false;
    if (!tcb.recv_slices.empty()) {
      RxSlice& back = tcb.recv_slices.back();
      if (back.block == tcb.land_block &&
          back.offset + back.length == tcb.land_fill) {
        back.length += static_cast<uint32_t>(take);
        merged = true;
      }
    }
    if (!merged) {
      tcb.recv_slices.push_back(RxSlice{tcb.land_block,
                                        static_cast<uint32_t>(tcb.land_fill),
                                        static_cast<uint32_t>(take)});
    }
    tcb.land_fill += take;
    tcb.recv_bytes += take;
    done += take;
  }
}

void NetStack::SendRst(Ipv4Addr dst, uint16_t dst_port, uint16_t src_port,
                       uint32_t seq, uint32_t ack) {
  TcpHeader header;
  header.src_port = src_port;
  header.dst_port = dst_port;
  header.seq = seq;
  header.ack = ack;
  header.flags = kTcpRst | kTcpAck;
  header.window = 0;
  auto segment = BuildTcp(addr(), dst, header, {});
  Ipv4Header ip;
  ip.src = addr();
  ip.dst = dst;
  ip.proto = IpProto::kTcp;
  Transmit(BuildIpv4(ip, segment));
  ++stats_.segments_sent;
}

void NetStack::PumpSendLocked(Tcb& tcb) {
  if (tcb.state != TcpState::kEstablished &&
      tcb.state != TcpState::kCloseWait && tcb.state != TcpState::kFinWait1 &&
      tcb.state != TcpState::kLastAck && tcb.state != TcpState::kClosing) {
    return;
  }
  // `data_base` == seq of the first queued chunk byte == snd_una (the chunk
  // queue is trimmed exactly to snd_una on every ACK).
  const uint32_t data_base = tcb.snd_una;
  const uint32_t fin_adjust = tcb.fin_sent ? 1 : 0;
  while (true) {
    const uint32_t sent_ahead = tcb.snd_nxt - data_base - fin_adjust;
    if (sent_ahead >= tcb.send_bytes) {
      break;  // everything queued has been transmitted at least once
    }
    const uint32_t inflight = tcb.snd_nxt - tcb.snd_una;
    const uint32_t window = std::min<uint32_t>(tcb.snd_wnd, kWindow);
    if (inflight >= window) {
      break;
    }
    const size_t limit = std::min<size_t>(tcb.send_bytes - sent_ahead,
                                          window - inflight);
    const size_t sent =
        TransmitChunkAtLocked(tcb, tcb.snd_nxt, sent_ahead, limit);
    if (sent == 0) {
      break;
    }
    tcb.snd_nxt += static_cast<uint32_t>(sent);
  }

  const bool all_data_sent =
      (tcb.snd_nxt - data_base - fin_adjust) >= tcb.send_bytes;
  if (tcb.fin_queued && !tcb.fin_sent && all_data_sent) {
    SendSegmentLocked(tcb, kTcpFin | kTcpAck, tcb.snd_nxt, {});
    tcb.fin_sent = true;
    tcb.snd_nxt += 1;
    if (tcb.state == TcpState::kEstablished) {
      tcb.state = TcpState::kFinWait1;
    } else if (tcb.state == TcpState::kCloseWait) {
      tcb.state = TcpState::kLastAck;
    }
  }
  ArmTimerLocked(tcb);
}

void NetStack::ArmTimerLocked(Tcb& tcb) {
  if (tcb.snd_una == tcb.snd_nxt) {
    tcb.rto_deadline = 0;  // nothing in flight
    return;
  }
  if (tcb.rto_deadline == 0) {
    tcb.rto_deadline = asbase::MonoNanos() + kRtoNanos;
    NoteTimerDeadlineLocked(tcb.rto_deadline);
  }
}

void NetStack::NoteTimerDeadlineLocked(int64_t deadline) {
  const int64_t current =
      next_timer_deadline_.load(std::memory_order_relaxed);
  if (current != 0 && current <= deadline) {
    return;  // the poller already wakes in time
  }
  next_timer_deadline_.store(deadline, std::memory_order_release);
  // The poller may be mid-sleep with the stale (later or absent) deadline.
  // The kick is sticky, so it also covers the window where the poller read
  // the old value but has not entered its wait yet.
  port_->Kick();
}

// ----------------------------------------------------------------- poller

void NetStack::PollerLoop() {
  while (running_.load()) {
    Counters().poll_iterations.Add(1);
    // Event wait: block until a packet arrives (queue condvar), a user
    // thread arms an earlier timer (Kick), or the earliest armed TCP timer
    // is due. An idle stack — no traffic, nothing in flight — just sleeps.
    std::chrono::nanoseconds wait = kMaxIdleWait;
    const int64_t next_deadline =
        next_timer_deadline_.load(std::memory_order_acquire);
    if (next_deadline != 0) {
      const int64_t until = next_deadline - asbase::MonoNanos();
      wait = std::min(wait,
                      std::chrono::nanoseconds(std::max<int64_t>(until, 0)));
    }
    auto packet = port_->Receive(wait);
    if (packet.has_value()) {
      HandlePacket(*packet);
      // Drain without timer checks while traffic is hot.
      while (auto more = port_->Receive(std::chrono::nanoseconds(0))) {
        HandlePacket(*more);
      }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    CheckTimersLocked();
  }
}

void NetStack::Transmit(Packet frame) {
  NetCounters& counters = Counters();
  counters.tx_packets.Add(1);
  counters.tx_bytes.Add(frame.size());
  port_->Send(std::move(frame));
}

void NetStack::HandlePacket(const Packet& packet) {
  NetCounters& counters = Counters();
  counters.rx_packets.Add(1);
  counters.rx_bytes.Add(packet.size());
  Ipv4Header ip;
  auto l4 = ParseIpv4Packet(packet, &ip);
  if (!l4.ok()) {
    counters.rx_dropped_bad_ipv4.Add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.checksum_failures;
    return;
  }
  if (ip.dst != addr()) {
    // Not for us (switch shouldn't let this happen) — but count it: a
    // misconfigured route shows up here, not as silent packet loss.
    counters.rx_dropped_dst_mismatch.Add(1);
    return;
  }
  switch (ip.proto) {
    case IpProto::kTcp:
      HandleTcp(ip, *l4, packet);
      break;
    case IpProto::kUdp:
      // Only TCP data rides gather frames; UDP/ICMP are always contiguous.
      HandleUdp(ip, *l4);
      break;
    case IpProto::kIcmp:
      HandleIcmp(ip, *l4);
      break;
  }
}

void NetStack::HandleTcp(const Ipv4Header& ip, std::span<const uint8_t> l4_head,
                         const Packet& packet) {
  TcpHeader header;
  auto payload_or = ParseTcpSegment(ip.src, ip.dst, l4_head, packet, &header);
  std::unique_lock<std::mutex> lock(mutex_);
  if (!payload_or.ok()) {
    Counters().rx_dropped_bad_tcp.Add(1);
    ++stats_.checksum_failures;
    return;
  }
  // Inline payload (contiguous frames) — gather frames carry theirs in
  // packet.refs(); `seg_len` is the segment's total payload either way.
  auto payload = *payload_or;
  const size_t seg_len = payload.size() + packet.payload_ref_bytes();
  ++stats_.segments_received;

  Tcb* tcb = FindTcbLocked(ip.src, header.src_port, header.dst_port);
  if (tcb == nullptr) {
    // New connection attempt?
    auto listener_it = listeners_.find(header.dst_port);
    if ((header.flags & kTcpSyn) && !(header.flags & kTcpAck) &&
        listener_it != listeners_.end() && listener_it->second.open) {
      const uint64_t id = next_tcb_id_++;
      auto fresh = std::make_unique<Tcb>();
      fresh->id = id;
      fresh->state = TcpState::kSynRcvd;
      fresh->remote_ip = ip.src;
      fresh->remote_port = header.src_port;
      fresh->local_port = header.dst_port;
      const uint32_t iss = next_iss_;
      next_iss_ += 64000;
      fresh->snd_una = iss;
      fresh->snd_nxt = iss + 1;
      fresh->rcv_nxt = header.seq + 1;
      fresh->snd_wnd = header.window;
      fresh->parent_listener = header.dst_port;
      Tcb& ref = *fresh;
      tcbs_[id] = std::move(fresh);
      tcb_index_[{ip.src, header.src_port, header.dst_port}] = id;
      SendSegmentLocked(ref, kTcpSyn | kTcpAck, iss, {});
      ArmTimerLocked(ref);
      return;
    }
    if (!(header.flags & kTcpRst)) {
      SendRst(ip.src, header.src_port, header.dst_port, header.ack,
              header.seq + static_cast<uint32_t>(seg_len) + 1);
    }
    return;
  }

  if (header.flags & kTcpRst) {
    tcb->aborted = true;
    tcb->state = TcpState::kClosed;
    cv_.notify_all();
    return;
  }

  // Handshake progress.
  if (tcb->state == TcpState::kSynSent) {
    if ((header.flags & (kTcpSyn | kTcpAck)) == (kTcpSyn | kTcpAck) &&
        header.ack == tcb->snd_nxt) {
      tcb->snd_una = header.ack;
      tcb->rcv_nxt = header.seq + 1;
      tcb->snd_wnd = header.window;
      tcb->state = TcpState::kEstablished;
      tcb->synchronized = true;
      tcb->rto_deadline = 0;
      tcb->retries = 0;
      SendSegmentLocked(*tcb, kTcpAck, tcb->snd_nxt, {});
      cv_.notify_all();
    }
    return;
  }
  if (tcb->state == TcpState::kSynRcvd) {
    if ((header.flags & kTcpAck) && header.ack == tcb->snd_nxt) {
      tcb->snd_una = header.ack;
      tcb->snd_wnd = header.window;
      tcb->state = TcpState::kEstablished;
      tcb->synchronized = true;
      tcb->rto_deadline = 0;
      tcb->retries = 0;
      auto listener_it = listeners_.find(tcb->parent_listener);
      if (listener_it != listeners_.end() && listener_it->second.open) {
        listener_it->second.pending.push_back(tcb->id);
      }
      cv_.notify_all();
      // Fall through: this segment may also carry data.
    } else if (header.flags & kTcpSyn) {
      // Duplicate SYN: re-send the SYN-ACK.
      SendSegmentLocked(*tcb, kTcpSyn | kTcpAck, tcb->snd_una, {});
      return;
    } else {
      return;
    }
  }

  // ACK processing.
  if (header.flags & kTcpAck) {
    tcb->snd_wnd = header.window;
    if (SeqLt(tcb->snd_una, header.ack) && SeqLe(header.ack, tcb->snd_nxt)) {
      uint32_t acked = header.ack - tcb->snd_una;
      // The FIN occupies the final sequence slot; data bytes are whatever
      // remains.
      uint32_t data_acked = acked;
      if (tcb->fin_sent && header.ack == tcb->snd_nxt) {
        data_acked = acked - 1;
      }
      data_acked = std::min<uint32_t>(data_acked, tcb->send_bytes);
      // Trim acknowledged chunks. Popping a fully-covered chunk drops its
      // pin — for zero-copy sends this is the moment the AsBuffer slot is
      // released (any duplicate frame still in flight keeps its own ref).
      uint32_t remaining = data_acked;
      while (remaining > 0) {
        TxChunk& front = tcb->send_chunks.front();
        if (front.bytes.size() <= remaining) {
          remaining -= static_cast<uint32_t>(front.bytes.size());
          tcb->send_chunks.pop_front();
        } else {
          front.bytes = front.bytes.subspan(remaining);
          remaining = 0;
        }
      }
      tcb->send_bytes -= data_acked;
      tcb->snd_una = header.ack;
      tcb->retries = 0;
      tcb->rto_deadline = 0;
      ArmTimerLocked(*tcb);

      if (tcb->fin_sent && tcb->snd_una == tcb->snd_nxt) {
        // Our FIN is acknowledged.
        if (tcb->state == TcpState::kFinWait1) {
          tcb->state =
              tcb->peer_fin ? TcpState::kClosed : TcpState::kFinWait2;
        } else if (tcb->state == TcpState::kLastAck ||
                   tcb->state == TcpState::kClosing) {
          tcb->state = TcpState::kClosed;
        }
      }
      cv_.notify_all();
      PumpSendLocked(*tcb);
    }
  }

  // Payload processing (in-order only; go-back-N).
  if (seg_len > 0) {
    if (header.seq == tcb->rcv_nxt && !tcb->peer_fin) {
      if (tcb->recv_bytes + seg_len > kRecvBufferCap) {
        // Receive buffer at cap: drop without copying — the sender's
        // go-back-N retransmission recovers once the reader drains. The
        // re-asserted cumulative ACK keeps the sender's clock ticking.
        Counters().rx_dropped_window_full.Add(1);
        SendSegmentLocked(*tcb, kTcpAck, tcb->snd_nxt, {});
      } else {
        if (!payload.empty()) {
          AppendRecvLocked(*tcb, payload);
        }
        for (const PayloadRef& ref : packet.refs()) {
          AppendRecvLocked(*tcb, ref.bytes);
        }
        tcb->rcv_nxt += static_cast<uint32_t>(seg_len);
        SendSegmentLocked(*tcb, kTcpAck, tcb->snd_nxt, {});
        cv_.notify_all();
      }
    } else {
      // Duplicate or out-of-order: go-back-N discards it regardless, so
      // skip the copy entirely — count it and re-assert the cumulative ACK.
      Counters().rx_dropped_out_of_order.Add(1);
      SendSegmentLocked(*tcb, kTcpAck, tcb->snd_nxt, {});
    }
  }

  // FIN processing.
  if (header.flags & kTcpFin) {
    // A FIN rides after any payload the segment carried; if that payload
    // was dropped above, rcv_nxt has not advanced and the FIN stays out of
    // order — the peer retransmits it.
    const uint32_t fin_seq =
        header.seq + static_cast<uint32_t>(seg_len);
    if (fin_seq == tcb->rcv_nxt && !tcb->peer_fin) {
      tcb->peer_fin = true;
      tcb->rcv_nxt += 1;
      SendSegmentLocked(*tcb, kTcpAck, tcb->snd_nxt, {});
      switch (tcb->state) {
        case TcpState::kEstablished:
          tcb->state = TcpState::kCloseWait;
          break;
        case TcpState::kFinWait1:
          // Our FIN not yet acked: simultaneous close.
          tcb->state = (tcb->snd_una == tcb->snd_nxt) ? TcpState::kClosed
                                                      : TcpState::kClosing;
          break;
        case TcpState::kFinWait2:
          tcb->state = TcpState::kClosed;
          break;
        default:
          break;
      }
      cv_.notify_all();
    } else if (SeqLt(fin_seq, tcb->rcv_nxt)) {
      SendSegmentLocked(*tcb, kTcpAck, tcb->snd_nxt, {});  // duplicate FIN
    }
  }
}

void NetStack::HandleUdp(const Ipv4Header& ip, std::span<const uint8_t> l4) {
  UdpHeader header;
  auto payload = ParseUdp(ip.src, ip.dst, l4, &header);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!payload.ok()) {
    Counters().rx_dropped_bad_udp.Add(1);
    ++stats_.checksum_failures;
    return;
  }
  auto it = udp_pcbs_.find(header.dst_port);
  if (it == udp_pcbs_.end() || !it->second.open) {
    Counters().rx_dropped_no_listener.Add(1);
    return;  // no ICMP port-unreachable yet
  }
  UdpSocket::Datagram datagram;
  datagram.src = ip.src;
  datagram.src_port = header.src_port;
  datagram.payload.assign(payload->begin(), payload->end());
  it->second.queue.push_back(std::move(datagram));
  udp_cv_.notify_all();
}

void NetStack::HandleIcmp(const Ipv4Header& ip, std::span<const uint8_t> l4) {
  if (l4.size() < kIcmpHeaderSize) {
    return;
  }
  const uint8_t type = l4[0];
  const uint16_t id = static_cast<uint16_t>((l4[4] << 8) | l4[5]);
  const uint16_t seq = static_cast<uint16_t>((l4[6] << 8) | l4[7]);
  if (type == 8) {  // echo request: reply
    auto reply = BuildIcmpEcho(true, id, seq, l4.subspan(kIcmpHeaderSize));
    Ipv4Header out;
    out.src = addr();
    out.dst = ip.src;
    out.proto = IpProto::kIcmp;
    Transmit(BuildIpv4(out, reply));
  } else if (type == 0) {  // echo reply
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ping_waiters_.find(seq);
    if (it != ping_waiters_.end()) {
      it->second = asbase::MonoNanos();
      ping_cv_.notify_all();
    }
  }
}

void NetStack::CheckTimersLocked() {
  const int64_t now = asbase::MonoNanos();
  for (auto& [id, tcb_ptr] : tcbs_) {
    Tcb& tcb = *tcb_ptr;
    if (tcb.rto_deadline == 0 || now < tcb.rto_deadline ||
        tcb.state == TcpState::kClosed) {
      continue;
    }
    if (++tcb.retries > kMaxRetries) {
      tcb.aborted = true;
      tcb.state = TcpState::kClosed;
      tcb.rto_deadline = 0;
      cv_.notify_all();
      continue;
    }
    ++stats_.retransmissions;
    switch (tcb.state) {
      case TcpState::kSynSent:
        SendSegmentLocked(tcb, kTcpSyn, tcb.snd_una, {});
        break;
      case TcpState::kSynRcvd:
        SendSegmentLocked(tcb, kTcpSyn | kTcpAck, tcb.snd_una, {});
        break;
      default: {
        const uint32_t unacked_data =
            std::min<uint32_t>(tcb.snd_nxt - tcb.snd_una,
                               static_cast<uint32_t>(tcb.send_bytes));
        if (unacked_data > 0) {
          // Go-back-N: resend one segment from snd_una. Zero-copy chunks
          // re-read the still-pinned slot memory; no stash was kept.
          TransmitChunkAtLocked(tcb, tcb.snd_una, 0, unacked_data);
        } else if (tcb.fin_sent && tcb.snd_una != tcb.snd_nxt) {
          SendSegmentLocked(tcb, kTcpFin | kTcpAck, tcb.snd_nxt - 1, {});
        }
        break;
      }
    }
    const int backoff_shift = std::min(tcb.retries, 6);
    tcb.rto_deadline = now + (kRtoNanos << backoff_shift);
  }

  // Re-derive the exact earliest armed deadline for the poller's next event
  // wait. Runs on the poller thread, so no kick is needed: the fresh value
  // is read right before the next sleep.
  int64_t next = 0;
  for (const auto& [id, tcb_ptr] : tcbs_) {
    const Tcb& tcb = *tcb_ptr;
    if (tcb.rto_deadline == 0 || tcb.state == TcpState::kClosed) {
      continue;
    }
    if (next == 0 || tcb.rto_deadline < next) {
      next = tcb.rto_deadline;
    }
  }
  next_timer_deadline_.store(next, std::memory_order_release);
}

// --------------------------------------------------------- handle plumbing

asbase::Result<size_t> NetStack::TcpRecv(uint64_t id, std::span<uint8_t> out,
                                         int64_t deadline_nanos) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = tcbs_.find(id);
  if (it == tcbs_.end()) {
    return asbase::FailedPrecondition("connection is gone");
  }
  Tcb& tcb = *it->second;
  auto readable = [&] {
    return tcb.recv_bytes > 0 || tcb.peer_fin || tcb.aborted ||
           tcb.state == TcpState::kClosed;
  };
  if (deadline_nanos == 0) {
    cv_.wait(lock, readable);
  } else {
    while (!readable()) {
      const int64_t now = asbase::MonoNanos();
      if (now >= deadline_nanos) {
        return asbase::DeadlineExceeded("recv past invocation deadline");
      }
      cv_.wait_for(lock, std::chrono::nanoseconds(deadline_nanos - now));
    }
  }
  if (tcb.aborted) {
    return asbase::Unavailable("connection reset by peer");
  }
  if (tcb.recv_bytes == 0) {
    return size_t{0};  // EOF
  }
  // Copy fallback: gather the pool-owned slices into the caller's
  // contiguous buffer (readers that can take extents use RecvZeroCopy).
  const size_t n = std::min(out.size(), tcb.recv_bytes);
  size_t done = 0;
  while (done < n) {
    RxSlice& slice = tcb.recv_slices.front();
    const size_t take = std::min<size_t>(slice.length, n - done);
    std::memcpy(out.data() + done, slice.block.get() + slice.offset, take);
    done += take;
    if (take == slice.length) {
      tcb.recv_slices.pop_front();  // block recycles when the last ref drops
    } else {
      slice.offset += static_cast<uint32_t>(take);
      slice.length -= static_cast<uint32_t>(take);
    }
  }
  tcb.recv_bytes -= n;
  Counters().rx_payload_copy.Add(n);
  return n;
}

asbase::Result<RxChunk> NetStack::TcpRecvZeroCopy(uint64_t id,
                                                  int64_t deadline_nanos) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = tcbs_.find(id);
  if (it == tcbs_.end()) {
    return asbase::FailedPrecondition("connection is gone");
  }
  Tcb& tcb = *it->second;
  auto readable = [&] {
    return tcb.recv_bytes > 0 || tcb.peer_fin || tcb.aborted ||
           tcb.state == TcpState::kClosed;
  };
  if (deadline_nanos == 0) {
    cv_.wait(lock, readable);
  } else {
    while (!readable()) {
      const int64_t now = asbase::MonoNanos();
      if (now >= deadline_nanos) {
        return asbase::DeadlineExceeded("recv past invocation deadline");
      }
      cv_.wait_for(lock, std::chrono::nanoseconds(deadline_nanos - now));
    }
  }
  if (tcb.aborted) {
    return asbase::Unavailable("connection reset by peer");
  }
  if (tcb.recv_bytes == 0) {
    return RxChunk{};  // EOF: empty bytes, no owner
  }
  // Hand the front extent to the reader by reference — the block leaves the
  // connection's queue but stays alive through chunk.owner.
  RxSlice slice = std::move(tcb.recv_slices.front());
  tcb.recv_slices.pop_front();
  tcb.recv_bytes -= slice.length;
  Counters().rx_payload_zerocopy.Add(slice.length);
  RxChunk chunk;
  chunk.bytes = std::span<const uint8_t>(slice.block.get() + slice.offset,
                                         slice.length);
  chunk.owner = std::move(slice.block);
  return chunk;
}

asbase::Result<size_t> NetStack::TcpQueue(uint64_t id,
                                          std::span<const uint8_t> data,
                                          std::shared_ptr<const void> pin,
                                          bool zerocopy,
                                          int64_t deadline_nanos) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = tcbs_.find(id);
  if (it == tcbs_.end()) {
    return asbase::FailedPrecondition("connection is gone");
  }
  Tcb& tcb = *it->second;
  size_t queued = 0;
  while (queued < data.size()) {
    auto writable = [&] {
      return tcb.send_bytes < kSendBufferCap || tcb.aborted ||
             tcb.fin_queued || tcb.state == TcpState::kClosed;
    };
    if (!writable()) {
      // Backpressure: the send queue is at kSendBufferCap and the sender
      // blocks (deadline-aware) until ACK processing trims it. The blocked
      // time is the `alloy_net_tx_backpressure_nanos` summary.
      const int64_t blocked_at = asbase::MonoNanos();
      if (deadline_nanos == 0) {
        cv_.wait(lock, writable);
      } else {
        while (!writable()) {
          const int64_t now = asbase::MonoNanos();
          if (now >= deadline_nanos) {
            Counters().tx_backpressure.Record(now - blocked_at);
            return asbase::DeadlineExceeded("send past invocation deadline");
          }
          cv_.wait_for(lock, std::chrono::nanoseconds(deadline_nanos - now));
        }
      }
      Counters().tx_backpressure.Record(asbase::MonoNanos() - blocked_at);
    }
    if (tcb.fin_queued) {
      return asbase::FailedPrecondition("send after close");
    }
    if (tcb.aborted || tcb.state == TcpState::kClosed) {
      return asbase::Unavailable("connection reset");
    }
    const size_t space = kSendBufferCap - tcb.send_bytes;
    const size_t chunk = std::min(space, data.size() - queued);
    tcb.send_chunks.push_back(
        TxChunk{data.subspan(queued, chunk), pin, zerocopy});
    tcb.send_bytes += chunk;
    queued += chunk;
    PumpSendLocked(tcb);
  }
  return queued;
}

asbase::Result<size_t> NetStack::TcpSend(uint64_t id,
                                         std::span<const uint8_t> data,
                                         int64_t deadline_nanos) {
  // Copying path: one shared heap copy of the caller's bytes up front. The
  // copy doubles as the chunk pin, so in-flight frames (and duplicates in
  // switch queues) share ownership instead of referencing tcb-local
  // storage that an ACK could trim from under them.
  auto owned = std::make_shared<std::vector<uint8_t>>(data.begin(),
                                                      data.end());
  return TcpQueue(id, std::span<const uint8_t>(*owned), owned,
                  /*zerocopy=*/false, deadline_nanos);
}

asbase::Result<size_t> NetStack::TcpSendZeroCopy(
    uint64_t id, std::span<const uint8_t> data,
    std::shared_ptr<const void> pin, int64_t deadline_nanos) {
  return TcpQueue(id, data, std::move(pin), /*zerocopy=*/true,
                  deadline_nanos);
}

void NetStack::TcpClose(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tcbs_.find(id);
  if (it == tcbs_.end()) {
    return;
  }
  Tcb& tcb = *it->second;
  if (tcb.state == TcpState::kSynSent || tcb.state == TcpState::kSynRcvd) {
    tcb.state = TcpState::kClosed;
    cv_.notify_all();
    return;
  }
  if (!tcb.fin_queued && (tcb.state == TcpState::kEstablished ||
                          tcb.state == TcpState::kCloseWait)) {
    tcb.fin_queued = true;
    PumpSendLocked(tcb);
  }
}

void NetStack::TcpRelease(uint64_t id) {
  TcpClose(id);
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = tcbs_.find(id);
  if (it == tcbs_.end()) {
    return;
  }
  // Give the teardown a moment to finish cleanly, then drop the tcb. The
  // retransmission machinery keeps running while we wait.
  Tcb& tcb = *it->second;
  const bool finished =
      cv_.wait_for(lock, std::chrono::milliseconds(200), [&] {
        return tcb.state == TcpState::kClosed ||
               (tcb.fin_sent && tcb.snd_una == tcb.snd_nxt);
      });
  if (!finished || tcb.aborted) {
    // Whatever the peer has not acknowledged dies with the tcb: reset it,
    // or its reader waits forever for bytes nobody will retransmit.
    SendRst(tcb.remote_ip, tcb.remote_port, tcb.local_port, tcb.snd_nxt,
            tcb.rcv_nxt);
  }
  DestroyTcbLocked(id);
}

void NetStack::ListenerRelease(uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = listeners_.find(port);
  if (it == listeners_.end()) {
    return;
  }
  // Orphan any un-accepted connections.
  for (uint64_t id : it->second.pending) {
    auto tcb_it = tcbs_.find(id);
    if (tcb_it != tcbs_.end()) {
      tcb_it->second->fin_queued = true;
      PumpSendLocked(*tcb_it->second);
    }
  }
  listeners_.erase(it);
}

void NetStack::UdpRelease(uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  udp_pcbs_.erase(port);
}

// -------------------------------------------------------------- handles

TcpConnection::~TcpConnection() { stack_->TcpRelease(id_); }

asbase::Result<size_t> TcpConnection::Recv(std::span<uint8_t> out) {
  return stack_->TcpRecv(id_, out, deadline_nanos_);
}

asbase::Result<size_t> TcpConnection::Send(std::span<const uint8_t> data) {
  return stack_->TcpSend(id_, data, deadline_nanos_);
}

asbase::Result<size_t> TcpConnection::SendZeroCopy(
    std::span<const uint8_t> data, std::shared_ptr<const void> pin) {
  return stack_->TcpSendZeroCopy(id_, data, std::move(pin), deadline_nanos_);
}

asbase::Result<RxChunk> TcpConnection::RecvZeroCopy() {
  return stack_->TcpRecvZeroCopy(id_, deadline_nanos_);
}

asbase::Result<size_t> TcpConnection::RecvAll(std::span<uint8_t> out) {
  size_t done = 0;
  while (done < out.size()) {
    AS_ASSIGN_OR_RETURN(size_t n, Recv(out.subspan(done)));
    if (n == 0) {
      break;
    }
    done += n;
  }
  return done;
}

void TcpConnection::Close() { stack_->TcpClose(id_); }

TcpListener::~TcpListener() { stack_->ListenerRelease(port_); }

asbase::Result<std::unique_ptr<TcpConnection>> TcpListener::Accept(
    std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(stack_->mutex_);
  // The invocation deadline (when set) caps the accept wait too.
  std::chrono::nanoseconds wait = timeout;
  if (deadline_nanos_ != 0) {
    const int64_t remaining = deadline_nanos_ - asbase::MonoNanos();
    if (remaining <= 0) {
      return asbase::DeadlineExceeded("accept past invocation deadline");
    }
    wait = std::min(wait, std::chrono::nanoseconds(remaining));
  }
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(wait);
  auto& listener = stack_->listeners_.at(port_);
  if (!stack_->cv_.wait_until(lock, deadline,
                              [&] { return !listener.pending.empty(); })) {
    if (deadline_nanos_ != 0 && asbase::MonoNanos() >= deadline_nanos_) {
      return asbase::DeadlineExceeded("accept past invocation deadline");
    }
    return asbase::Unavailable("accept timeout");
  }
  const uint64_t id = listener.pending.front();
  listener.pending.pop_front();
  auto it = stack_->tcbs_.find(id);
  if (it == stack_->tcbs_.end()) {
    return asbase::Unavailable("connection vanished before accept");
  }
  NetStack::Tcb& tcb = *it->second;
  auto connection = std::unique_ptr<TcpConnection>(new TcpConnection(
      stack_, id, tcb.remote_ip, tcb.remote_port, tcb.local_port));
  connection->set_deadline_nanos(deadline_nanos_);
  return connection;
}

UdpSocket::~UdpSocket() { stack_->UdpRelease(port_); }

asbase::Status UdpSocket::SendTo(Ipv4Addr dst, uint16_t dst_port,
                                 std::span<const uint8_t> payload) {
  UdpHeader header;
  header.src_port = port_;
  header.dst_port = dst_port;
  auto datagram = BuildUdp(stack_->addr(), dst, header, payload);
  Ipv4Header ip;
  ip.src = stack_->addr();
  ip.dst = dst;
  ip.proto = IpProto::kUdp;
  stack_->Transmit(BuildIpv4(ip, datagram));
  return asbase::OkStatus();
}

asbase::Result<UdpSocket::Datagram> UdpSocket::RecvFrom(
    std::chrono::nanoseconds timeout) {
  std::unique_lock<std::mutex> lock(stack_->mutex_);
  auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(timeout);
  auto& pcb = stack_->udp_pcbs_.at(port_);
  if (!stack_->udp_cv_.wait_until(lock, deadline,
                                  [&] { return !pcb.queue.empty(); })) {
    return asbase::Unavailable("recvfrom timeout");
  }
  Datagram datagram = std::move(pcb.queue.front());
  pcb.queue.pop_front();
  return datagram;
}

asbase::Status SendAll(TcpConnection& connection,
                       std::span<const uint8_t> data) {
  AS_ASSIGN_OR_RETURN(size_t n, connection.Send(data));
  if (n != data.size()) {
    return asbase::Internal("short send");
  }
  return asbase::OkStatus();
}

}  // namespace asnet
