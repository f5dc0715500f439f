// Core data model for trace-driven evaluation (paper §2.1).
//
// A *client context* c is a featurized summary of the client and its
// surroundings (client IP bucket, location, device type, time of day, ...).
// A *decision* d is one of a finite decision space D (server choice, CDN,
// bitrate, relay path, configuration, ...). A *trace* is the logged set
// T = {(c_k, d_k, r_k)} produced by running an *old policy* mu_old, where
// r_k is the observed reward (performance metric).
#ifndef DRE_TRACE_TYPES_H
#define DRE_TRACE_TYPES_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace dre {

// Identifier into a finite decision space [0, num_decisions).
using Decision = std::int32_t;

// Observed performance metric (QoE, -latency, throughput, ...); higher is
// better by convention throughout the library.
using Reward = double;

// The std::vector subset the context features use, for trivially copyable
// values: up to N values live inside the object, more move to one heap
// block (capacity never shrinks, as with std::vector). So a context of at
// most N + N features costs no allocation to build, copy or decode.
//
// Unlike std::vector, moving an inline container copies its values: a
// pointer or iterator into it does not survive a move of its owner (for
// example a reallocation of a std::vector<LoggedTuple>). A moved-from
// container is empty. == compares element-wise with T's ==, as
// std::vector's does (-0.0 == 0.0, NaN != NaN).
template <typename T, std::size_t N>
class InlineVector {
    static_assert(std::is_trivially_copyable_v<T> && N > 0);

public:
    using value_type = T;
    using size_type = std::size_t;
    using iterator = T*;
    using const_iterator = const T*;

    InlineVector() noexcept = default;
    InlineVector(std::initializer_list<T> values) {
        copy_from(values.begin(), values.size());
    }
    InlineVector(const InlineVector& other) {
        copy_from(other.data(), other.size());
    }
    InlineVector(InlineVector&& other) noexcept { take(other); }
    InlineVector& operator=(const InlineVector& other) {
        if (this != &other) copy_from(other.data(), other.size());
        return *this;
    }
    InlineVector& operator=(InlineVector&& other) noexcept {
        if (this != &other) {
            release();
            take(other);
        }
        return *this;
    }
    InlineVector& operator=(std::initializer_list<T> values) {
        copy_from(values.begin(), values.size());
        return *this;
    }
    ~InlineVector() { release(); }

    size_type size() const noexcept { return size_; }

    T* data() noexcept { return on_heap() ? heap_ : inline_.values; }
    const T* data() const noexcept {
        return on_heap() ? heap_ : inline_.values;
    }
    T* begin() noexcept { return data(); }
    T* end() noexcept { return data() + size_; }
    const T* begin() const noexcept { return data(); }
    const T* end() const noexcept { return data() + size_; }

    T& operator[](size_type i) noexcept { return data()[i]; }
    const T& operator[](size_type i) const noexcept { return data()[i]; }
    T& at(size_type i) { return data()[checked(i)]; }
    const T& at(size_type i) const { return data()[checked(i)]; }

    void clear() noexcept { size_ = 0; }
    void reserve(size_type n) {
        if (n > capacity_) reallocate(n);
    }
    // New elements are value-initialized (0), as std::vector's are.
    void resize(size_type n) {
        if (n > capacity_) reallocate(grown(n));
        if (n > size_) std::fill(data() + size_, data() + n, T{});
        size_ = static_cast<std::uint32_t>(n);
    }
    void push_back(T value) {
        if (size_ == capacity_) reallocate(grown(size() + 1));
        data()[size_++] = value;
    }

    friend bool operator==(const InlineVector& a, const InlineVector& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

private:
    static constexpr size_type kMaxSize =
        std::numeric_limits<std::uint32_t>::max();

    // Whole-struct assignment to the union member (re)starts its lifetime,
    // so every inline value is always initialized.
    struct Inline {
        T values[N];
    };

    bool on_heap() const noexcept { return capacity_ > N; }

    size_type checked(size_type i) const {
        if (i >= size_) throw std::out_of_range("InlineVector::at");
        return i;
    }

    // Capacity for at least n elements, doubling so that push_back stays
    // amortized O(1).
    size_type grown(size_type n) const {
        return std::max(n, std::min<size_type>(2 * size_type{capacity_},
                                               kMaxSize));
    }

    // Moves the elements to a heap block of exactly `capacity` (> capacity_).
    void reallocate(size_type capacity) {
        if (capacity > kMaxSize) throw std::length_error("InlineVector");
        T* block = std::allocator<T>().allocate(capacity);
        std::copy(data(), data() + size_, block);
        release();
        heap_ = block;
        capacity_ = static_cast<std::uint32_t>(capacity);
    }

    // Frees the heap block, if any; the caller re-points the union.
    void release() noexcept {
        if (on_heap()) std::allocator<T>().deallocate(heap_, capacity_);
    }

    void copy_from(const T* values, size_type n) {
        if (n > capacity_) {
            size_ = 0;
            reallocate(n);
        }
        std::copy(values, values + n, data());
        size_ = static_cast<std::uint32_t>(n);
    }

    // Adopts other's heap block or copies its inline values, and leaves
    // it empty and inline. Any block of this must already be released.
    void take(InlineVector& other) noexcept {
        size_ = other.size_;
        capacity_ = other.capacity_;
        if (other.on_heap())
            heap_ = other.heap_;
        else
            inline_ = other.inline_;
        other.size_ = 0;
        other.capacity_ = N;
        other.inline_ = Inline{};
    }

    std::uint32_t size_ = 0;
    std::uint32_t capacity_ = N;
    union {
        Inline inline_ = {};
        T* heap_;
    };
};

// A client context: a fixed-length vector of numeric features plus an
// optional vector of categorical features (small non-negative codes).
// Numeric and categorical parts are kept separate so that reward models can
// treat them appropriately (regression vs. exact matching / one-hot).
// Up to kInlineDims values of each kind are stored inline (every built-in
// environment at its defaults fits), so tuples decode without allocating.
struct ClientContext {
    static constexpr std::size_t kInlineDims = 4;
    using Numeric = InlineVector<double, kInlineDims>;
    using Categorical = InlineVector<std::int32_t, kInlineDims>;

    Numeric numeric;
    Categorical categorical;

    ClientContext() = default;
    explicit ClientContext(Numeric numeric_features,
                           Categorical categorical_features = {})
        : numeric(std::move(numeric_features)),
          categorical(std::move(categorical_features)) {}

    std::size_t numeric_dims() const noexcept { return numeric.size(); }
    std::size_t categorical_dims() const noexcept { return categorical.size(); }

    // Flatten to a single numeric vector (categoricals cast to double) for
    // generic regressors. One-hot expansion is the reward model's business.
    std::vector<double> flattened() const;

    bool operator==(const ClientContext&) const = default;
};

// One logged interaction. `propensity` is mu_old(d_k | c_k): the probability
// with which the logging policy chose the logged decision. The paper assumes
// it is known ("we assume knowledge of the probability..."); when it is not,
// dre::core::PropensityModel estimates it from the trace.
struct LoggedTuple {
    ClientContext context;
    Decision decision = 0;
    Reward reward = 0.0;
    double propensity = 1.0;
    // Optional system-state label (§4.1/§4.3: load regime, time-of-day, ...).
    // kNoState means unlabeled.
    std::int32_t state = kNoState;

    static constexpr std::int32_t kNoState = -1;
};

// Hash-like key for exact context matching (used by tabular models and the
// CFA matching estimator).
std::uint64_t context_fingerprint(const ClientContext& context) noexcept;

// Human-readable rendering for logs and error messages.
std::string to_string(const ClientContext& context);

} // namespace dre

#endif // DRE_TRACE_TYPES_H
