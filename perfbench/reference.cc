#include "reference.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iterator>
#include <map>
#include <regex>
#include <set>

namespace perfbench {

namespace {

constexpr uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

uint32_t
rotr(uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/// One SHA-256 compression.
void
compress(uint32_t state[8], const uint8_t block[64])
{
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (uint32_t{block[4 * i]} << 24) |
               (uint32_t{block[4 * i + 1]} << 16) |
               (uint32_t{block[4 * i + 2]} << 8) | block[4 * i + 3];
    }
    for (int i = 16; i < 64; ++i) {
        const uint32_t s0 =
            rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const uint32_t s1 =
            rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
        const uint32_t t1 = h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25)) +
                            ((e & f) ^ (~e & g)) + kRound[i] + w[i];
        const uint32_t t2 = (rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22)) +
                            ((a & b) ^ (a & c) ^ (b & c));
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
}

constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};

} // namespace

std::vector<uint32_t>
sha256(const uint8_t* data, size_t len)
{
    uint32_t state[8];
    std::copy(kInit, kInit + 8, state);
    std::vector<uint8_t> msg(data, data + len);
    msg.push_back(0x80);
    while (msg.size() % 64 != 56) {
        msg.push_back(0);
    }
    const uint64_t bits = static_cast<uint64_t>(len) * 8;
    for (int i = 7; i >= 0; --i) {
        msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
    for (size_t off = 0; off < msg.size(); off += 64) {
        compress(state, msg.data() + off);
    }
    return std::vector<uint32_t>(state, state + 8);
}

uint32_t
pow_hash(uint32_t nonce)
{
    const uint8_t bytes[4] = {
        static_cast<uint8_t>(nonce >> 24), static_cast<uint8_t>(nonce >> 16),
        static_cast<uint8_t>(nonce >> 8), static_cast<uint8_t>(nonce)};
    return sha256(bytes, 4)[0];
}

bool
pow_qualifies(uint32_t hash, uint32_t zero_bits)
{
    return zero_bits == 0 || (hash >> (32 - zero_bits)) == 0;
}

namespace {

struct PowLine {
    uint32_t nonce = 0;
    uint32_t hash = 0;
};

/// Parses every display line; returns the first line that is not a miner
/// line, or an empty string.
std::string
parse_pow(const std::vector<std::string>& lines, std::vector<PowLine>* out)
{
    for (const std::string& line : lines) {
        unsigned nonce = 0;
        unsigned hash = 0;
        if (std::sscanf(line.c_str(), "nonce %x -> hash %x", &nonce,
                        &hash) != 2) {
            return "unexpected output line: " + line;
        }
        out->push_back({nonce, hash});
    }
    return {};
}

/// True when \p nonce lies in [begin, end) of the wrapping nonce space.
bool
in_sweep(uint32_t nonce, uint32_t begin, uint32_t end)
{
    return nonce - begin < end - begin;
}

} // namespace

std::string
check_pow(const std::vector<std::string>& lines, uint32_t begin,
          uint32_t end, uint32_t limit, uint64_t hits, uint32_t zero_bits,
          uint64_t led)
{
    char buf[160];
    std::vector<PowLine> shown;
    std::string err = parse_pow(lines, &shown);
    if (!err.empty()) {
        return err;
    }
    std::set<uint32_t> seen;
    uint64_t in_range = 0;
    for (const PowLine& l : shown) {
        if (!in_sweep(l.nonce, begin, limit)) {
            std::snprintf(buf, sizeof buf,
                          "nonce %08x displayed outside the mined range "
                          "[%08x, %08x)",
                          l.nonce, begin, limit);
            return buf;
        }
        if (!pow_qualifies(l.hash, zero_bits)) {
            std::snprintf(buf, sizeof buf,
                          "nonce %08x hash %08x misses the target", l.nonce,
                          l.hash);
            return buf;
        }
        if (!seen.insert(l.nonce).second) {
            std::snprintf(buf, sizeof buf, "nonce %08x displayed twice",
                          l.nonce);
            return buf;
        }
        in_range += in_sweep(l.nonce, begin, end) ? 1 : 0;
    }
    if (in_range != hits) {
        std::snprintf(buf, sizeof buf,
                      "%" PRIu64 " hits displayed in [%08x, %08x) but the "
                      "hits register counts %" PRIu64,
                      in_range, begin, end, hits);
        return buf;
    }
    if (led != hits % 256) {
        std::snprintf(buf, sizeof buf,
                      "LED byte %" PRIu64 " but the hits register counts "
                      "%" PRIu64,
                      led, hits);
        return buf;
    }
    return {};
}

std::string
check_pow_sha256(const std::vector<std::string>& lines, uint32_t begin,
                 uint32_t end, uint32_t zero_bits, uint64_t led)
{
    char buf[160];
    std::vector<PowLine> shown;
    std::string err = parse_pow(lines, &shown);
    if (!err.empty()) {
        return err;
    }
    std::set<uint32_t> displayed;
    for (const PowLine& l : shown) {
        if (pow_hash(l.nonce) != l.hash) {
            std::snprintf(buf, sizeof buf,
                          "nonce %08x displayed hash %08x, SHA-256 %08x",
                          l.nonce, l.hash, pow_hash(l.nonce));
            return buf;
        }
        if (in_sweep(l.nonce, begin, end)) {
            displayed.insert(l.nonce);
        }
    }
    uint64_t expected = 0;
    for (uint32_t n = begin; n != end; ++n) {
        if (!pow_qualifies(pow_hash(n), zero_bits)) {
            continue;
        }
        ++expected;
        if (displayed.erase(n) == 0) {
            std::snprintf(buf, sizeof buf,
                          "qualifying nonce %08x of [%08x, %08x) was never "
                          "displayed",
                          n, begin, end);
            return buf;
        }
    }
    if (!displayed.empty()) {
        std::snprintf(buf, sizeof buf,
                      "nonce %08x displayed but its SHA-256 misses the "
                      "target",
                      *displayed.begin());
        return buf;
    }
    if (led != expected % 256) {
        std::snprintf(buf, sizeof buf,
                      "LED byte %" PRIu64 " but SHA-256 finds %" PRIu64
                      " hits",
                      led, expected);
        return buf;
    }
    return {};
}

uint64_t
count_requests(const std::vector<uint8_t>& bytes)
{
    static const std::regex pattern("GET /[a-z]+ ");
    const std::string text(bytes.begin(), bytes.end());
    return static_cast<uint64_t>(
        std::distance(std::sregex_iterator(text.begin(), text.end(), pattern),
                      std::sregex_iterator()));
}

std::string
check_regex(const std::vector<uint8_t>& pushed, uint64_t delivered,
            uint64_t consumed, uint64_t hits)
{
    char buf[160];
    if (delivered != pushed.size()) {
        std::snprintf(buf, sizeof buf,
                      "%zu bytes pushed but %" PRIu64 " delivered",
                      pushed.size(), delivered);
        return buf;
    }
    if (consumed != delivered) {
        std::snprintf(buf, sizeof buf,
                      "design consumed %" PRIu64 " of %" PRIu64
                      " delivered bytes",
                      consumed, delivered);
        return buf;
    }
    const uint64_t expected = count_requests(pushed);
    if (hits != expected) {
        std::snprintf(buf, sizeof buf,
                      "design counted %" PRIu64 " matches, host %" PRIu64,
                      hits, expected);
        return buf;
    }
    return {};
}

int64_t
nw_score(const std::vector<int>& a, const std::vector<int>& b)
{
    const size_t n = a.size();
    const size_t m = b.size();
    std::vector<std::vector<int64_t>> dp(n + 1,
                                         std::vector<int64_t>(m + 1, 0));
    for (size_t i = 0; i <= n; ++i) {
        dp[i][0] = -static_cast<int64_t>(i);
    }
    for (size_t j = 0; j <= m; ++j) {
        dp[0][j] = -static_cast<int64_t>(j);
    }
    for (size_t i = 1; i <= n; ++i) {
        for (size_t j = 1; j <= m; ++j) {
            const int64_t diag =
                dp[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 2 : -1);
            dp[i][j] = std::max({diag, dp[i - 1][j] - 1, dp[i][j - 1] - 1});
        }
    }
    return dp[n][m];
}

std::vector<int>
Aligner::seq_a() const
{
    std::vector<int> s;
    for (int t = 0; t < n; ++t) {
        s.push_back((t * a_mul + a_add) % 4);
    }
    return s;
}

std::vector<int>
Aligner::seq_b() const
{
    std::vector<int> s;
    for (int t = 0; t < n; ++t) {
        s.push_back((t * b_mul + b_add) % 4);
    }
    return s;
}

std::string
check_scores(const std::vector<std::string>& lines,
             const std::vector<Aligner>& aligners)
{
    std::map<int, int64_t> expected;
    for (const Aligner& al : aligners) {
        expected[al.id] = nw_score(al.seq_a(), al.seq_b());
    }
    std::set<int> seen;
    for (const std::string& line : lines) {
        int id = 0;
        long long score = 0;
        if (std::sscanf(line.c_str(), "score %d = %lld", &id, &score) !=
            2) {
            return "unexpected output line: " + line;
        }
        const auto it = expected.find(id);
        if (it == expected.end()) {
            return "score line for unknown aligner: " + line;
        }
        if (!seen.insert(id).second) {
            return "aligner " + std::to_string(id) + " printed twice";
        }
        if (score != it->second) {
            return "aligner " + std::to_string(id) + " scored " +
                   std::to_string(score) + ", host DP " +
                   std::to_string(it->second);
        }
    }
    for (const auto& [id, score] : expected) {
        if (seen.count(id) == 0) {
            return "aligner " + std::to_string(id) + " never printed";
        }
    }
    return {};
}

std::string
check_counter(uint64_t value, uint64_t inc, uint64_t posedges)
{
    const uint64_t expected = (inc * posedges) & 0xffff;
    if (value != expected) {
        return "counter reads " + std::to_string(value) + " after " +
               std::to_string(posedges) + " posedges of +" +
               std::to_string(inc) + ", expected " +
               std::to_string(expected);
    }
    return {};
}

} // namespace perfbench
