#include "upper/dsm/dsm.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "upper/wire.hpp"

namespace vibe::upper::dsm {

namespace {

using wire::append;
using wire::consume;

constexpr int kPageReqBase = msg::Communicator::kServiceTagBase + 16;

}  // namespace

std::unique_ptr<DsmRegion> DsmRegion::create(msg::Communicator& comm,
                                             std::uint64_t bytes,
                                             const DsmConfig& config) {
  auto region =
      std::unique_ptr<DsmRegion>(new DsmRegion(comm, bytes, config));
  comm.barrier();  // everyone's handlers are registered before first use
  return region;
}

DsmRegion::DsmRegion(msg::Communicator& comm, std::uint64_t bytes,
                     const DsmConfig& config)
    : comm_(comm), config_(config), bytes_(bytes) {
  if (bytes == 0 || config_.pageBytes == 0) {
    throw std::invalid_argument("DsmRegion: empty region or page");
  }
  pages_ = static_cast<std::uint32_t>(
      (bytes + config_.pageBytes - 1) / config_.pageBytes);
  // Allocate backing store for the pages homed here (zero-initialized).
  std::uint32_t slot = 0;
  for (std::uint32_t p = 0; p < pages_; ++p) {
    if (homeOf(p) == comm_.rank()) homeIndex_[p] = slot++;
  }
  homeStore_.assign(static_cast<std::size_t>(slot) * config_.pageBytes,
                    std::byte{0});
  pageReqTag_ = kPageReqBase + config_.serviceTagOffset;
  pageRespTag_ = pageReqTag_ + 1;
  writeTag_ = pageReqTag_ + 2;
  flushTag_ = pageReqTag_ + 3;
  flushAckTag_ = pageReqTag_ + 4;
  for (const int tag :
       {pageReqTag_, pageRespTag_, writeTag_, flushTag_, flushAckTag_}) {
    comm_.addServiceHandler(
        tag, [this](std::uint32_t src, int t, std::vector<std::byte> data) {
          onService(src, t, std::move(data));
        });
  }
}

std::span<std::byte> DsmRegion::homePage(std::uint32_t page) {
  auto it = homeIndex_.find(page);
  if (it == homeIndex_.end()) {
    throw std::logic_error("DsmRegion: not the home of this page");
  }
  return std::span<std::byte>(
      homeStore_.data() +
          static_cast<std::size_t>(it->second) * config_.pageBytes,
      config_.pageBytes);
}

void DsmRegion::onService(std::uint32_t src, int tag,
                          std::vector<std::byte> payload) {
  std::span<const std::byte> in(payload);
  if (tag == pageReqTag_) {
    const auto page = consume<std::uint32_t>(in);
    const auto token = consume<std::uint32_t>(in);
    std::vector<std::byte> reply;
    append(reply, token);
    const auto data = homePage(page);
    reply.insert(reply.end(), data.begin(), data.end());
    comm_.send(src, pageRespTag_, reply);
  } else if (tag == pageRespTag_) {
    const auto token = consume<std::uint32_t>(in);
    pageReplies_[token].assign(in.begin(), in.end());
  } else if (tag == writeTag_) {
    const auto page = consume<std::uint32_t>(in);
    const auto off = consume<std::uint32_t>(in);
    auto data = homePage(page);
    if (off + in.size() > data.size()) {
      throw std::out_of_range("DsmRegion: write record escapes page");
    }
    std::copy(in.begin(), in.end(), data.begin() + off);
  } else if (tag == flushTag_) {
    // All prior write records from `src` arrived before this on the same
    // FIFO channel and are already applied: acknowledge.
    const auto token = consume<std::uint32_t>(in);
    std::vector<std::byte> reply;
    append(reply, token);
    comm_.send(src, flushAckTag_, reply);
  } else if (tag == flushAckTag_) {
    flushAcks_.insert(consume<std::uint32_t>(in));
  } else {
    throw std::logic_error("DsmRegion: unknown service tag");
  }
}

DsmRegion::CachedPage& DsmRegion::cachedPage(std::uint32_t page) {
  CachedPage& entry = cache_[page];
  if (entry.valid) {
    ++cacheHits_;
    return entry;
  }
  const std::uint32_t home = homeOf(page);
  const std::uint32_t token = nextToken_++;
  std::vector<std::byte> req;
  append(req, page);
  append(req, token);
  comm_.send(home, pageReqTag_, req);
  // Progress-all while waiting: the home may itself be waiting on a page
  // from us (or from a third rank), so serving incoming requests here is
  // what breaks request cycles.
  while (pageReplies_.find(token) == pageReplies_.end()) {
    comm_.progressOrWait();
  }
  entry.data = std::move(pageReplies_[token]);
  pageReplies_.erase(token);
  entry.valid = true;
  ++remoteReads_;
  return entry;
}

std::vector<std::byte> DsmRegion::read(std::uint64_t offset,
                                       std::uint64_t len) {
  if (offset + len > bytes_) throw std::out_of_range("DsmRegion: read");
  std::vector<std::byte> out(len);
  std::uint64_t done = 0;
  while (done < len) {
    const std::uint64_t pos = offset + done;
    const auto page = static_cast<std::uint32_t>(pos / config_.pageBytes);
    const auto inPage = static_cast<std::uint32_t>(pos % config_.pageBytes);
    const std::uint64_t chunk =
        std::min<std::uint64_t>(config_.pageBytes - inPage, len - done);
    if (homeOf(page) == comm_.rank()) {
      const auto data = homePage(page);
      std::copy_n(data.begin() + inPage, chunk, out.begin() + done);
    } else {
      const CachedPage& entry = cachedPage(page);
      std::copy_n(entry.data.begin() + inPage, chunk, out.begin() + done);
    }
    done += chunk;
  }
  return out;
}

void DsmRegion::write(std::uint64_t offset, std::span<const std::byte> data) {
  if (offset + data.size() > bytes_) throw std::out_of_range("DsmRegion: write");
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const auto page = static_cast<std::uint32_t>(pos / config_.pageBytes);
    const auto inPage = static_cast<std::uint32_t>(pos % config_.pageBytes);
    const std::uint64_t chunk = std::min<std::uint64_t>(
        config_.pageBytes - inPage, data.size() - done);
    const auto slice = data.subspan(done, chunk);
    if (homeOf(page) == comm_.rank()) {
      auto store = homePage(page);
      std::copy(slice.begin(), slice.end(), store.begin() + inPage);
    } else {
      // Update the local copy (write-allocate) and write through to home.
      CachedPage& entry = cachedPage(page);
      std::copy(slice.begin(), slice.end(), entry.data.begin() + inPage);
      std::vector<std::byte> record;
      append(record, page);
      append(record, inPage);
      record.insert(record.end(), slice.begin(), slice.end());
      comm_.send(homeOf(page), writeTag_, record);
      dirtyHomes_.insert(homeOf(page));
      ++writeThroughs_;
    }
    done += chunk;
  }
}

double DsmRegion::readDouble(std::uint64_t offset) {
  const auto b = read(offset, sizeof(double));
  double v;
  std::memcpy(&v, b.data(), sizeof(double));
  return v;
}

void DsmRegion::writeDouble(std::uint64_t offset, double value) {
  write(offset, {reinterpret_cast<const std::byte*>(&value), sizeof(double)});
}

void DsmRegion::acquire() {
  for (auto& [page, entry] : cache_) entry.valid = false;
}

void DsmRegion::release() {
  // Confirm that every home this rank wrote to has applied the records
  // (the flush rides behind them on the same FIFO channel), then barrier.
  std::unordered_map<std::uint32_t, std::uint32_t> pendingTokens;
  for (const std::uint32_t home : dirtyHomes_) {
    const std::uint32_t token = nextToken_++;
    std::vector<std::byte> req;
    append(req, token);
    comm_.send(home, flushTag_, req);
    pendingTokens.emplace(home, token);
  }
  dirtyHomes_.clear();
  // Every rank is (eventually) inside release() spinning progress-all, so
  // the flushes and their acks make global progress.
  for (;;) {
    bool allAcked = true;
    for (const auto& [home, token] : pendingTokens) {
      if (flushAcks_.find(token) == flushAcks_.end()) {
        allAcked = false;
        break;
      }
    }
    if (allAcked) break;
    comm_.progressOrWait();
  }
  for (const auto& [home, token] : pendingTokens) flushAcks_.erase(token);
  comm_.barrier(/*serveAll=*/true);
}

void DsmRegion::barrier() {
  release();
  acquire();
}

}  // namespace vibe::upper::dsm
