/** @file Workload table, seeded inputs, oracle and statistics. */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "common/random.h"
#include "common/thread_pool.h"
#include "e2e.h"

namespace hentt::e2e {

namespace {

using serve::WireOp;

he::HeParams
Params(std::size_t degree, std::size_t primes, u64 t)
{
    he::HeParams params;
    params.degree = degree;
    params.prime_count = primes;
    params.prime_bits = 50;
    params.plain_modulus = t;
    return params;
}

const RequestClass kTiny = {
    "tiny", Params(1024, 2, 257), false,
    {{WireOp::kMul, 0, 1}, {WireOp::kModSwitch, 2, 0}}, {3}, 0};

/**
 * The depth-7 multiply-and-descend tower of bench_deep_circuit, one
 * prime dropped per level (8 -> 1): x = RelinModSwitch(a * b), then six
 * times x = RelinModSwitch(x * b'), with b' = b mod-switched down to
 * x's level. Squaring x instead exhausts the noise budget at the fifth
 * level with these parameters.
 */
RequestClass
MakeTower()
{
    RequestClass cls{"tower", Params(4096, 8, 65537), true, {}, {}, 0};
    u32 x = 0, factor = 1, next = 2;
    for (int level = 0; level < 7; ++level) {
        if (level > 0) {
            cls.ops.push_back({WireOp::kModSwitch, factor, 0});
            factor = next++;
        }
        cls.ops.push_back({WireOp::kMul, x, factor});
        cls.ops.push_back({WireOp::kRelinModSwitch, next++, 0});
        x = next++;
    }
    cls.outputs = {x};
    return cls;
}

const RequestClass kTower = MakeTower();

/** Sparse b keeps the schoolbook oracle O(N * 64) at N = 65536. */
const RequestClass kWide = {
    "wide", Params(65536, 4, 65537), true,
    {{WireOp::kMul, 0, 1}, {WireOp::kRelinModSwitch, 2, 0}}, {3}, 64};

/** Negacyclic product of @p a and @p b mod @p t, schoolbook. */
he::Plaintext
NegacyclicMul(const he::Plaintext &a, const he::Plaintext &b, u64 t)
{
    const std::size_t n = a.size();
    std::vector<std::size_t> nonzero;
    for (std::size_t j = 0; j < n; ++j) {
        if (b[j] != 0) {
            nonzero.push_back(j);
        }
    }
    // Terms are summed unreduced; each is below (t-1)^2.
    if (!nonzero.empty() &&
        (t - 1) * (t - 1) >
            std::numeric_limits<u64>::max() / nonzero.size()) {
        throw std::invalid_argument("oracle accumulator would overflow");
    }
    he::Plaintext out(n);
    constexpr std::size_t kChunks = 64;
    ParallelFor(kChunks, n * nonzero.size() / kChunks + 1,
                [&](std::size_t c) {
        const std::size_t k0 = c * n / kChunks;
        const std::size_t k1 = (c + 1) * n / kChunks;
        std::vector<u64> pos(k1 - k0, 0), neg(k1 - k0, 0);
        for (const std::size_t j : nonzero) {
            const u64 bj = b[j];
            // X^i * X^j lands on k = i + j; past N it wraps negated.
            for (std::size_t k = std::max(k0, j); k < k1; ++k) {
                pos[k - k0] += a[k - j] * bj;
            }
            for (std::size_t k = k0; k < std::min(k1, j); ++k) {
                neg[k - k0] += a[k + n - j] * bj;
            }
        }
        for (std::size_t k = k0; k < k1; ++k) {
            out[k] = (pos[k - k0] % t + t - neg[k - k0] % t) % t;
        }
    });
    return out;
}

}  // namespace

const std::vector<Workload> &
Workloads()
{
    static const std::vector<Workload> workloads = {
        {"tiny", {{&kTiny, 0, 300.0, 4, true}}, 98.0, 0.2, 0.5, 0.3},
        {"tower", {{&kTower, 0, 15.0, 1, true}}, 90.0, 0.15, 0.6, 0.25},
        {"wide", {{&kWide, 0, 5.0, 1, true}}, 75.0, 0.15, 0.7, 0.15},
        {"mixed",
         {{&kTiny, 0, 200.0, 4, true}, {&kTower, 1, 8.0, 1, false}},
         99.0, 0.2, 0.5, 0.3},
    };
    return workloads;
}

const Workload *
FindWorkload(const std::string &name)
{
    for (const Workload &w : Workloads()) {
        if (name == w.name) {
            return &w;
        }
    }
    return nullptr;
}

u64
DeriveSeed(u64 seed, u64 tag)
{
    u64 state = seed ^ (tag * 0x9e3779b97f4a7c15ull);
    SplitMix64(state);
    return SplitMix64(state);
}

std::vector<PlainPair>
MakePlainPool(const RequestClass &cls, u64 seed)
{
    const std::size_t n = cls.params.degree;
    const u64 t = cls.params.plain_modulus;
    Xoshiro256 rng(seed);
    std::vector<PlainPair> pool(kPoolSize);
    for (PlainPair &pair : pool) {
        pair.a.resize(n);
        for (u64 &x : pair.a) {
            x = rng.NextBelow(t);
        }
        pair.b.assign(n, 0);
        if (cls.sparse_b == 0) {
            for (u64 &x : pair.b) {
                x = rng.NextBelow(t);
            }
        } else {
            for (std::size_t placed = 0; placed < cls.sparse_b;) {
                u64 &x = pair.b[rng.NextBelow(n)];
                if (x == 0) {
                    x = 1 + rng.NextBelow(t - 1);
                    ++placed;
                }
            }
        }
    }
    return pool;
}

he::Plaintext
PlainEvaluate(const RequestClass &cls, const PlainPair &in)
{
    const u64 t = cls.params.plain_modulus;
    std::vector<he::Plaintext> slots = {in.a, in.b};
    for (const serve::WireProgram::Op &op : cls.ops) {
        const he::Plaintext &x = slots[op.a];
        switch (op.op) {
          case WireOp::kMul:
            slots.push_back(NegacyclicMul(x, slots[op.b], t));
            break;
          case WireOp::kModSwitch:
          case WireOp::kRelinModSwitch:  // both keep m
            slots.push_back(x);
            break;
          default:
            throw std::invalid_argument("op unused by the workloads");
        }
    }
    return slots[cls.outputs.front()];
}

std::vector<he::Ciphertext>
EvaluateLocal(const he::BgvScheme &scheme, const he::RelinKey *rk,
              const RequestClass &cls,
              const std::vector<he::Ciphertext> &inputs)
{
    std::vector<he::Ciphertext> slots = inputs;
    slots.reserve(inputs.size() + cls.ops.size());
    for (const serve::WireProgram::Op &op : cls.ops) {
        const he::Ciphertext &x = slots[op.a];
        switch (op.op) {
          case WireOp::kMul:
            slots.push_back(scheme.Mul(x, slots[op.b]));
            break;
          case WireOp::kModSwitch:
            slots.push_back(scheme.ModSwitch(x));
            break;
          case WireOp::kRelinModSwitch:
            slots.push_back(scheme.RelinModSwitch(x, *rk));
            break;
          default:
            throw std::invalid_argument("op unused by the workloads");
        }
    }
    std::vector<he::Ciphertext> outputs;
    for (const u32 slot : cls.outputs) {
        outputs.push_back(slots[slot]);
    }
    return outputs;
}

std::vector<double>
ArrivalSchedule(double rps, double seconds, u64 seed)
{
    // One gap from each of n equal-probability strata of the
    // exponential distribution, in seeded random order.
    const auto n = static_cast<std::size_t>(std::llround(rps * seconds));
    Xoshiro256 rng(seed);
    std::vector<double> gaps(n);
    const auto strata = static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = (static_cast<double>(i) + rng.NextDouble()) / strata;
        gaps[i] = -std::log1p(-u) / rps;
    }
    for (std::size_t i = n; i > 1; --i) {
        std::swap(gaps[i - 1], gaps[rng.NextBelow(i)]);
    }
    std::vector<double> due;
    double t = 0.0;
    for (const double gap : gaps) {
        t += gap;
        if (t >= seconds) {
            break;
        }
        due.push_back(t);
    }
    return due;
}

double
Median(std::vector<double> v)
{
    if (v.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::size_t
SamplesBeyond(std::size_t n, double pct)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return n - std::min(n, std::max<std::size_t>(rank, 1));
}

double
Percentile(std::vector<double> v, double pct)
{
    if (v.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(v.begin(), v.end());
    return v[v.size() - 1 - SamplesBeyond(v.size(), pct)];
}

void
Report::Add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
Report::Note(const std::string &name, const std::string &text)
{
    notes.emplace_back(name, text);
}

double
Report::Value(const std::string &name) const
{
    for (const Metric &m : metrics) {
        if (m.name == name) {
            return m.value;
        }
    }
    return std::numeric_limits<double>::quiet_NaN();
}

bool
ValidMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0]))) {
        return false;
    }
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '.' || c == '-';
    });
}

void
SpanLog::Record(const char *name, u64 request, u32 lane,
                Clock::time_point start, Clock::time_point end)
{
    spans_.push_back({name, request, lane, start, end});
}

bool
SpanLog::WriteChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const double ts = Ms(s.start - origin_) * 1e3;
        const double dur = Ms(s.end - s.start) * 1e3;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                     "\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                     "\"args\":{\"request\":%llu}}\n",
                     i == 0 ? "" : ",", s.name, ts, dur, s.lane,
                     static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

}  // namespace hentt::e2e
