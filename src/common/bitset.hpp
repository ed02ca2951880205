// A minimal dynamic bitset used for transitive-closure computations
// (PREC sets of the PSI commit test, reachability in serialization graphs).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace crooks {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  std::size_t size() const { return size_; }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }
  void set(std::size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  /// this |= other. `other` may be smaller (its missing tail is zero).
  void or_with(const DynamicBitset& other) {
    const std::size_t n = std::min(words_.size(), other.words_.size());
    for (std::size_t w = 0; w < n; ++w) words_[w] |= other.words_[w];
  }

  /// Grow to at least n bits (new bits are zero). Never shrinks.
  void grow(std::size_t n) {
    if (n > size_) {
      size_ = n;
      words_.resize((n + 63) / 64, 0);
    }
  }

  bool any() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  /// Invoke f(index) for every set bit, in increasing index order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        f(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Invoke f(index) for every set bit in [lo, hi), in increasing order.
  template <typename F>
  void for_each_in(std::size_t lo, std::size_t hi, F&& f) const {
    hi = std::min(hi, size_);
    if (lo >= hi) return;
    const std::size_t last = (hi - 1) >> 6;
    for (std::size_t w = lo >> 6; w <= last; ++w) {
      std::uint64_t bits = words_[w];
      if (w == lo >> 6) bits &= ~0ULL << (lo & 63);
      if (w == last && (hi & 63) != 0) bits &= (1ULL << (hi & 63)) - 1;
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        f(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Drop the first `nwords` 64-bit words; the remaining bits shift down by
  /// 64*nwords (the online checker's window fold re-bases its PREC sets).
  void drop_words(std::size_t nwords) {
    nwords = std::min(nwords, words_.size());
    if (nwords == 0) return;
    words_.erase(words_.begin(),
                 words_.begin() + static_cast<std::ptrdiff_t>(nwords));
    size_ -= std::min(size_, nwords * 64);
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace crooks
