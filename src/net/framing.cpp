#include "net/framing.hpp"

#include <cassert>

namespace wav::net {

std::vector<Chunk> frame_message(FrameHeader header, Chunk payload) {
  header.length = payload.size();
  ByteBuffer hdr;
  ByteWriter w{hdr};
  w.u8(header.type);
  w.u32(header.tag);
  w.u64(header.length);
  std::vector<Chunk> out;
  out.push_back(Chunk::from_bytes(std::move(hdr)));
  if (!payload.empty()) out.push_back(std::move(payload));
  return out;
}

void MessageFramer::push(const std::vector<Chunk>& chunks) {
  for (const auto& c : chunks) buffer_.push(c);
  drain();
}

void MessageFramer::drain() {
  for (;;) {
    if (!current_) {
      if (buffer_.size() < kFrameHeaderBytes) return;
      ByteBuffer header_bytes;
      header_bytes.reserve(kFrameHeaderBytes);
      for (auto& piece : buffer_.pop_up_to(kFrameHeaderBytes)) {
        // Protocol invariant: headers are always sent as real bytes.
        assert(!piece.is_virtual() && "frame header must be real bytes");
        header_bytes.insert(header_bytes.end(), piece.real.begin(), piece.real.end());
      }
      ByteReader r{header_bytes};
      FrameHeader header;
      header.type = r.u8().value();
      header.tag = r.u32().value();
      header.length = r.u64().value();
      current_ = header;
      payload_.clear();
      payload_received_ = 0;
    }
    if (payload_received_ < current_->length) {
      auto got = buffer_.pop_up_to(current_->length - payload_received_);
      if (got.empty()) return;
      payload_received_ += total_size(got);
      for (auto& piece : got) {
        // Runs of virtual bytes collapse into one chunk: a bulk message
        // arrives one MSS at a time, and a descriptor per segment made a
        // 512 MiB migration round hold a 16 MB vector for no information.
        if (piece.is_virtual() && piece.real.empty() && !payload_.empty() &&
            payload_.back().is_virtual() && payload_.back().real.empty()) {
          payload_.back().virtual_size += piece.virtual_size;
        } else {
          payload_.push_back(std::move(piece));
        }
      }
      if (payload_received_ < current_->length) return;
    }
    const FrameHeader header = *current_;
    current_.reset();
    ++parsed_;
    handler_(header, std::move(payload_));
    payload_.clear();
  }
}

}  // namespace wav::net
