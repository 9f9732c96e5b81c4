#include "lmo/runtime/kv_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "lmo/kvshare/prefix_cache.hpp"
#include "lmo/tensor/quantize.hpp"
#include "lmo/util/check.hpp"
#include "lmo/util/checksum.hpp"
#include "lmo/util/fault.hpp"
#include "lmo/util/status.hpp"

namespace lmo::runtime {
namespace {

// Bit-flip injection on KV rows as they are read back for attention.
constexpr const char* kKvFlipSite = "integrity.kv.flip";

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

const char* to_string(KVFlavor flavor) {
  return flavor == KVFlavor::kWindow ? "window" : "dense";
}

KVFlavor kv_flavor_from_string(const std::string& name) {
  if (name == "dense") return KVFlavor::kDense;
  if (name == "window") return KVFlavor::kWindow;
  throw util::ConfigError("unknown KV flavor '" + name +
                          "' (expected dense or window)");
}

std::size_t kv_bytes_per_token(std::int64_t hidden, int bits) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(2.0 * static_cast<double>(hidden) *
                                  (static_cast<double>(bits) / 8.0)));
}

// ------------------------------------------------------------ block pool --

KVBlockPool::KVBlockPool(const KVBlockPoolConfig& config, MemoryPool* pool)
    : config_(config), pool_(pool) {
  LMO_CHECK_GT(config_.block_tokens, 0);
  LMO_CHECK_GE(config_.hidden, 0);
  LMO_CHECK(config_.bits == 16 || config_.bits == 8 || config_.bits == 4);
  if (!materialized()) {
    block_bytes_ = config_.bytes_per_block;
  } else if (config_.bits == 16) {
    payload_bytes_ = row_bytes_ =
        static_cast<std::size_t>(config_.hidden) * sizeof(float);
  } else {
    const std::int64_t gs = config_.group_size;
    LMO_CHECK_GT(gs, 0);
    LMO_CHECK_MSG(config_.bits == 8 || gs % 2 == 0,
                  "4-bit groups must have even size for byte packing");
    row_groups_ = (config_.hidden + gs - 1) / gs;
    payload_bytes_ = static_cast<std::size_t>(row_groups_ * gs *
                                              config_.bits / 8);
    const std::size_t bytes =
        2 * static_cast<std::size_t>(row_groups_) * sizeof(float) +
        payload_bytes_;
    row_bytes_ = (bytes + sizeof(float) - 1) / sizeof(float) * sizeof(float);
  }
  if (materialized()) {
    block_bytes_ = 2 * static_cast<std::size_t>(config_.block_tokens) *
                   row_bytes_;
  }
  LMO_CHECK_GT(block_bytes_, 0u);
}

KVBlockPool::~KVBlockPool() {
  // Blocks still referenced at teardown (a lease or cache outliving its
  // owner — a usage error guarded elsewhere) return their bytes.
  if (pool_ != nullptr && live_ > 0) pool_->release(live_ * block_bytes_);
}

KVBlockPool::Block& KVBlockPool::live_block(std::int64_t id) {
  LMO_CHECK_GE(id, 0);
  LMO_CHECK_LT(id, static_cast<std::int64_t>(blocks_.size()));
  Block& b = *blocks_[static_cast<std::size_t>(id)];
  LMO_CHECK_MSG(b.refs > 0, "KV block id refers to a freed block");
  return b;
}

std::int64_t KVBlockPool::allocate_impl(bool throw_on_refusal) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (config_.capacity_bytes > 0 &&
      (live_ + 1) * block_bytes_ > config_.capacity_bytes) {
    if (throw_on_refusal) {
      throw util::ResourceExhausted("KV block pool budget exhausted");
    }
    return -1;
  }
  ++live_;  // reserve the budget before charging
  if (pool_ != nullptr) {
    // Unlocked: the charge may fire pressure callbacks that free blocks of
    // this pool.
    lock.unlock();
    try {
      pool_->charge(block_bytes_);
    } catch (const util::ResourceExhausted&) {
      lock.lock();
      --live_;
      if (throw_on_refusal) throw;
      return -1;
    }
    lock.lock();
  }
  std::int64_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<std::int64_t>(blocks_.size());
    blocks_.push_back(std::make_unique<Block>());
  }
  Block& b = *blocks_[static_cast<std::size_t>(id)];
  b.data.assign(materialized() ? block_bytes_ / sizeof(float) : 0, 0.0f);
  b.refs = 1;
  return id;
}

std::int64_t KVBlockPool::try_allocate() { return allocate_impl(false); }

std::int64_t KVBlockPool::allocate() { return allocate_impl(true); }

void KVBlockPool::ref(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++live_block(id).refs;
}

bool KVBlockPool::unref(std::int64_t id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--live_block(id).refs > 0) return false;
    free_.push_back(id);
    --live_;
  }
  if (pool_ != nullptr) pool_->release(block_bytes_);
  return true;
}

int KVBlockPool::refcount(std::int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return const_cast<KVBlockPool*>(this)->live_block(id).refs;
}

float* KVBlockPool::data(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Block& b = live_block(id);
  return b.data.empty() ? nullptr : b.data.data();
}

std::size_t KVBlockPool::live_blocks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return live_;
}

// -------------------------------------------------------------- KV cache --

KVCache::KVCache(KVBlockPool& pool, std::int64_t window, RowChecks checks)
    : pool_(&pool), window_(window), checks_(checks) {
  LMO_CHECK_MSG(pool.materialized(), "a KV cache needs a materialized pool");
  LMO_CHECK_GE(window, 0);
}

KVCache::KVCache(const kvshare::PrefixLease& lease, std::int64_t layer)
    : KVCache(lease.pool(), 0, RowChecks::kOff) {
  for (std::size_t i = 0; i < lease.blocks(); ++i) {
    const std::int64_t id = lease.block(i, layer);
    pool_->ref(id);
    blocks_.push_back(id);
    data_.push_back(reinterpret_cast<std::byte*>(pool_->data(id)));
  }
  appended_ = lease.matched_tokens();
}

KVCache::~KVCache() { release_blocks(); }

void KVCache::release_blocks() {
  if (pool_ == nullptr) return;
  for (std::int64_t id : blocks_) {
    if (id >= 0) pool_->unref(id);
  }
  blocks_.clear();
  data_.clear();
}

KVCache::KVCache(KVCache&& other) noexcept { *this = std::move(other); }

KVCache& KVCache::operator=(KVCache&& other) noexcept {
  if (this == &other) return *this;
  release_blocks();
  pool_ = other.pool_;
  window_ = other.window_;
  checks_ = other.checks_;
  blocks_ = std::move(other.blocks_);
  data_ = std::move(other.data_);
  appended_ = other.appended_;
  first_ = other.first_;
  quantize_seconds_ = other.quantize_seconds_;
  dequantize_seconds_ = other.dequantize_seconds_;
  integrity_ = other.integrity_;
  region_ = std::move(other.region_);
  k_crcs_ = std::move(other.k_crcs_);
  v_crcs_ = std::move(other.v_crcs_);
  other.blocks_.clear();
  other.data_.clear();
  other.appended_ = other.first_ = 0;
  return *this;
}

std::byte* KVCache::row_ptr(std::int64_t token, KVPlane plane) const {
  const std::int64_t bt = pool_->block_tokens();
  const std::int64_t slot =
      token % bt + (plane == KVPlane::kValues ? bt : 0);
  return data_[static_cast<std::size_t>(token / bt)] +
         static_cast<std::size_t>(slot) * pool_->row_bytes();
}

const std::byte* KVCache::payload_of(const std::byte* row) const {
  // A quantized row's mins and scales precede its codes.
  return row + 2 * static_cast<std::size_t>(pool_->row_groups()) *
                   sizeof(float);
}

std::byte* KVCache::writable_slot() {
  const std::int64_t bt = pool_->block_tokens();
  const std::int64_t slot = appended_ % bt;
  if (blocks_.size() == static_cast<std::size_t>(appended_ / bt)) {
    const std::int64_t id = pool_->allocate();
    blocks_.push_back(id);
    data_.push_back(reinterpret_cast<std::byte*>(pool_->data(id)));
  } else if (pool_->refcount(blocks_.back()) > 1) {
    // Copy-on-write: a fork or the prefix cache still reads the tail
    // block, so its live rows move to a private block before the write.
    const std::int64_t fresh = pool_->allocate();
    auto* dst = reinterpret_cast<std::byte*>(pool_->data(fresh));
    const std::byte* src = data_.back();
    const std::size_t live = static_cast<std::size_t>(slot) *
                             pool_->row_bytes();
    const std::size_t plane = static_cast<std::size_t>(bt) *
                              pool_->row_bytes();
    std::memcpy(dst, src, live);
    std::memcpy(dst + plane, src + plane, live);
    pool_->unref(blocks_.back());
    blocks_.back() = fresh;
    data_.back() = dst;
  }
  return row_ptr(appended_, KVPlane::kKeys);
}

void KVCache::note_appended() {
  if (integrity_ != nullptr && integrity_->enabled()) {
    const auto print = [&](KVPlane plane) {
      return util::crc32(
          std::span(payload_of(row_ptr(appended_, plane)),
                    pool_->row_payload_bytes()));
    };
    k_crcs_.push_back(print(KVPlane::kKeys));
    v_crcs_.push_back(print(KVPlane::kValues));
  }
  ++appended_;
  if (window_ == 0 || appended_ - first_ <= window_) return;
  // The window slides by one row; once it leaves a block boundary behind,
  // no visible row uses the block before it.
  ++first_;
  if (first_ % pool_->block_tokens() != 0) return;
  const auto b = static_cast<std::size_t>(first_ / pool_->block_tokens() - 1);
  pool_->unref(blocks_[b]);
  blocks_[b] = -1;
  data_[b] = nullptr;
}

void KVCache::append(std::span<const float> k_row,
                     std::span<const float> v_row) {
  const auto hidden = static_cast<std::size_t>(pool_->hidden());
  LMO_CHECK_EQ(k_row.size(), hidden);
  LMO_CHECK_EQ(v_row.size(), hidden);
  std::byte* k = writable_slot();
  std::byte* v = row_ptr(appended_, KVPlane::kValues);
  if (pool_->bits() == 16) {
    const std::size_t bytes = pool_->row_bytes();
    std::memcpy(k, k_row.data(), bytes);
    std::memcpy(v, v_row.data(), bytes);
  } else {
    const auto start = std::chrono::steady_clock::now();
    const tensor::QuantConfig config{pool_->bits(), pool_->group_size()};
    const auto groups = static_cast<std::size_t>(pool_->row_groups());
    for (auto [row, dst] : {std::pair{k_row, k}, std::pair{v_row, v}}) {
      // Mins, then scales, then the codes (see payload_of).
      auto* meta = reinterpret_cast<float*>(dst);
      tensor::quantize_into(
          row, config, std::span(meta, groups),
          std::span(meta + groups, groups),
          std::span(reinterpret_cast<std::uint8_t*>(meta + 2 * groups),
                    pool_->row_payload_bytes()));
    }
    quantize_seconds_ += seconds_since(start);
  }
  note_appended();
}

void KVCache::append(const tensor::Tensor& k_row,
                     const tensor::Tensor& v_row) {
  LMO_CHECK_EQ(k_row.shape().rank(), 1u);
  LMO_CHECK_EQ(v_row.shape().rank(), 1u);
  append(k_row.f32(), v_row.f32());
}

void KVCache::append_stored(std::span<const std::byte> k_row,
                            std::span<const std::byte> v_row) {
  LMO_CHECK_EQ(k_row.size(), pool_->row_bytes());
  LMO_CHECK_EQ(v_row.size(), pool_->row_bytes());
  std::memcpy(writable_slot(), k_row.data(), k_row.size());
  std::memcpy(row_ptr(appended_, KVPlane::kValues), v_row.data(),
              v_row.size());
  note_appended();
}

std::span<const std::byte> KVCache::stored_row(KVPlane plane,
                                               std::int64_t index) const {
  return {row_ptr(first_ + index, plane), pool_->row_bytes()};
}

void KVCache::resume_at(std::int64_t appended) {
  LMO_CHECK_MSG(appended_ == 0, "resume_at needs an empty cache");
  LMO_CHECK_GE(appended, 0);
  if (window_ == 0) return;
  LMO_CHECK_MSG(integrity_ == nullptr,
                "a window cache keeps no fingerprints of the rows it skips");
  const std::int64_t skipped = std::max<std::int64_t>(0, appended - window_);
  const auto dropped =
      static_cast<std::size_t>(skipped / pool_->block_tokens());
  blocks_.assign(dropped, -1);
  data_.assign(dropped, nullptr);
  first_ = appended_ = skipped;
}

void KVCache::set_integrity(integrity::ChecksumRegistry* registry,
                            std::string region) {
  LMO_CHECK_MSG(appended_ == 0,
                "set_integrity must precede appends so every row gets a "
                "fingerprint");
  integrity_ = registry;
  region_ = std::move(region);
}

void KVRowFormat::decode(std::span<const std::byte* const> rows,
                         std::int64_t begin, std::int64_t width,
                         float* out) const {
  const std::int64_t end = begin + width;
  LMO_CHECK_GE(begin, 0);
  LMO_CHECK_GE(width, 0);
  if (!quantized()) {
    LMO_CHECK_LE(end * static_cast<std::int64_t>(sizeof(float)),
                 static_cast<std::int64_t>(payload_bytes));
    for (const std::byte* row : rows) {
      std::memcpy(out, reinterpret_cast<const float*>(row) + begin,
                  static_cast<std::size_t>(width) * sizeof(float));
      out += width;
    }
    return;
  }
  LMO_CHECK_LE(end, groups * group_size);
  if (width == 0) return;
  const std::int64_t first = begin / group_size;
  const std::int64_t last = (end - 1) / group_size;
  for (const std::byte* row : rows) {
    // Mins, then scales, then the codes (KVCache::payload_of).
    const auto* meta = reinterpret_cast<const float*>(row);
    const auto* codes =
        reinterpret_cast<const std::uint8_t*>(meta + 2 * groups);
    for (std::int64_t g = first; g <= last; ++g) {
      const std::int64_t lo = std::max(begin, g * group_size);
      const std::int64_t hi = std::min(end, (g + 1) * group_size);
      tensor::dequantize_group(codes, bits, lo, hi, meta[groups + g], meta[g],
                               out);
      out += hi - lo;
    }
  }
}

tensor::Tensor KVCache::copy_plane(KVPlane plane) const {
  KVRowView view;
  read_rows(plane, view);
  const std::int64_t h = hidden();
  tensor::Tensor out = tensor::Tensor::zeros(
      {static_cast<std::int64_t>(view.rows.size()), h});
  float* dst = out.f32().data();
  const auto start = std::chrono::steady_clock::now();
  view.format.decode(view.rows, 0, h, dst);
  if (view.format.quantized()) dequantize_seconds_ += seconds_since(start);
  return out;
}

void KVCache::read_rows(KVPlane plane, KVRowView& view) const {
  const std::vector<std::uint32_t>& crcs =
      plane == KVPlane::kKeys ? k_crcs_ : v_crcs_;
  auto& injector = util::FaultInjector::instance();
  const bool inject = checks_ == RowChecks::kOn && injector.enabled();
  const bool check =
      integrity_ != nullptr && integrity_->enabled() && !crcs.empty();
  const std::size_t payload_bytes = pool_->row_payload_bytes();
  view.format = pool_->row_format();
  view.rows.resize(static_cast<std::size_t>(length()));
  view.wire.clear();
  const std::int64_t bt = pool_->block_tokens();
  const std::size_t row_bytes = pool_->row_bytes();
  std::size_t i = 0;
  for (std::int64_t t = first_; t < appended_;) {
    // A block's rows of one plane are contiguous.
    const std::byte* stored = row_ptr(t, plane);
    for (const std::int64_t end = std::min(appended_, (t / bt + 1) * bt);
         t < end; ++t, ++i, stored += row_bytes) {
      const std::byte* row = stored;
      if (inject) {
        // The read-back crosses the same fragile path the write took;
        // model bit rot on a wire copy — the stored row, which forks and
        // the prefix cache may share, stays pristine. The flip domain is
        // the fingerprinted payload.
        const std::int64_t flip =
            injector.corrupt_bit(kKvFlipSite, 8 * payload_bytes);
        if (flip >= 0) {
          const std::size_t copy = view.wire.size();
          view.wire.insert(view.wire.end(), row, row + row_bytes);
          row = view.wire.data() + copy;
          const auto at = static_cast<std::size_t>(payload_of(row) - row) +
                          static_cast<std::size_t>(flip / 8);
          view.wire[copy + at] ^= static_cast<std::byte>(1u << (flip % 8));
        }
      }
      if (check &&
          integrity_->config().should_verify(static_cast<std::uint64_t>(t)) &&
          !integrity_->verify_value(std::span(payload_of(row), payload_bytes),
                                    crcs[static_cast<std::size_t>(t)])) {
        // The stored row itself may be rot (not just the wire copy), so
        // re-reading cannot repair it; the Generator recomputes the cache
        // from the token history.
        throw util::DataCorruption("KV row " + std::to_string(t) + " of " +
                                   (region_.empty() ? "<unnamed>" : region_) +
                                   " failed verification");
      }
      // A wire copy's address moves while later copies are appended; it
      // is pointed at once the read is done.
      view.rows[i] = row == stored ? stored : nullptr;
    }
  }
  if (view.wire.empty()) return;
  const std::byte* copy = view.wire.data();
  for (const std::byte*& row : view.rows) {
    if (row == nullptr) {
      row = copy;
      copy += row_bytes;
    }
  }
}

void KVCache::truncate(std::int64_t new_length) {
  LMO_CHECK_GE(new_length, 0);
  LMO_CHECK_LE(new_length, length());
  appended_ = first_ + new_length;
  if (!k_crcs_.empty()) {
    k_crcs_.resize(static_cast<std::size_t>(appended_));
    v_crcs_.resize(static_cast<std::size_t>(appended_));
  }
  const std::int64_t bt = pool_->block_tokens();
  const auto keep = static_cast<std::size_t>((appended_ + bt - 1) / bt);
  while (blocks_.size() > keep) {
    if (blocks_.back() >= 0) pool_->unref(blocks_.back());
    blocks_.pop_back();
    data_.pop_back();
  }
}

KVCache KVCache::clone() const {
  KVCache copy(*pool_, window_, checks_);
  for (std::int64_t id : blocks_) {
    if (id >= 0) pool_->ref(id);
  }
  copy.blocks_ = blocks_;
  copy.data_ = data_;
  copy.appended_ = appended_;
  copy.first_ = first_;
  copy.integrity_ = integrity_;
  copy.region_ = region_;
  copy.k_crcs_ = k_crcs_;
  copy.v_crcs_ = v_crcs_;
  return copy;
}

std::size_t KVCache::private_bytes() const {
  std::size_t bytes = 0;
  for (std::int64_t id : blocks_) {
    if (id >= 0 && pool_->refcount(id) == 1) bytes += pool_->block_bytes();
  }
  return bytes;
}

}  // namespace lmo::runtime
