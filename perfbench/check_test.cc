/// \file
/// Self-test of the benchmark's references and output checks: each check
/// accepts a correct session and rejects the same session with one output
/// corrupted (a flipped nonce, a dropped byte, a wrong score, ...).
/// Run with `python3 perfbench/run.py --self-test`.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "reference.h"

namespace {

int g_failures = 0;

void
expect(bool ok, const char* what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) {
        ++g_failures;
    }
}

std::string
hex_words(const std::vector<uint32_t>& words)
{
    std::string out;
    char buf[16];
    for (uint32_t w : words) {
        std::snprintf(buf, sizeof buf, "%08x", w);
        out += buf;
    }
    return out;
}

std::string
pow_line(uint32_t nonce, uint32_t hash)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "nonce %08x -> hash %08x", nonce, hash);
    return buf;
}

void
test_sha256()
{
    const char* abc = "abc";
    expect(hex_words(perfbench::sha256(
               reinterpret_cast<const uint8_t*>(abc), 3)) ==
               "ba7816bf8f01cfea414140de5dae2223"
               "b00361a396177a9cb410ff61f20015ad",
           "sha256(\"abc\") matches FIPS 180-4");
    expect(hex_words(perfbench::sha256(nullptr, 0)) ==
               "e3b0c44298fc1c149afbf4c8996fb924"
               "27ae41e4649b934ca495991b7852b855",
           "sha256(\"\") matches FIPS 180-4");
    expect(perfbench::pow_hash(0x09025d2c) == 0x345236bc,
           "pow_hash is SHA-256 of the big-endian nonce");
}

void
test_pow()
{
    const uint32_t bits = 8;
    const uint32_t begin = 1000;
    const uint32_t end = 3000;
    const uint32_t limit = 3100; // the nonce register once lines were read
    std::vector<std::string> lines;
    uint64_t hits = 0;
    for (uint32_t n = begin; n != limit; ++n) {
        if (perfbench::pow_qualifies(perfbench::pow_hash(n), bits)) {
            lines.push_back(pow_line(n, perfbench::pow_hash(n)));
            hits += n < end ? 1 : 0;
        }
    }
    const uint64_t led = hits % 256;
    const auto both = [&](const std::vector<std::string>& l, uint64_t h,
                          uint64_t le) {
        return perfbench::check_pow(l, begin, end, limit, h, bits, le)
                   .empty() &&
               perfbench::check_pow_sha256(l, begin, end, bits, le).empty();
    };
    expect(hits > 2, "the test sweep has hits");
    expect(both(lines, hits, led), "pow: a correct session passes both checks");

    std::vector<std::string> flipped = lines;
    uint32_t nonce = 0;
    uint32_t hash = 0;
    std::sscanf(flipped[1].c_str(), "nonce %x -> hash %x", &nonce, &hash);
    flipped[1] = pow_line(nonce ^ 1, hash);
    expect(!perfbench::check_pow_sha256(flipped, begin, end, bits, led)
                .empty(),
           "pow: a flipped nonce fails SHA-256");

    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + 1);
    expect(!perfbench::check_pow(dropped, begin, end, limit, hits, bits, led)
                .empty(),
           "pow: a counted hit never displayed fails");
    expect(!perfbench::check_pow_sha256(dropped, begin, end, bits, led)
                .empty(),
           "pow: a qualifying nonce never displayed fails SHA-256");

    std::vector<std::string> repeated = lines;
    repeated.push_back(lines[0]);
    expect(!perfbench::check_pow(repeated, begin, end, limit, hits, bits, led)
                .empty(),
           "pow: a hit displayed twice fails");

    std::vector<std::string> outside = lines;
    outside.push_back(pow_line(limit + 5, 0x00123456));
    expect(!perfbench::check_pow(outside, begin, end, limit, hits, bits, led)
                .empty(),
           "pow: a nonce past the mined range fails");

    uint32_t nonce0 = 0;
    uint32_t hash0 = 0;
    std::sscanf(lines[0].c_str(), "nonce %x -> hash %x", &nonce0, &hash0);
    std::vector<std::string> missed_target = lines;
    missed_target[0] = pow_line(nonce0, 0x80000000);
    expect(!perfbench::check_pow(missed_target, begin, end, limit, hits, bits,
                                 led)
                .empty(),
           "pow: a hash that misses the target fails");

    std::vector<std::string> wrong_hash = lines;
    wrong_hash[0] = pow_line(nonce0, hash0 ^ 0x10);
    expect(perfbench::check_pow(wrong_hash, begin, end, limit, hits, bits,
                                led)
                   .empty() &&
               !perfbench::check_pow_sha256(wrong_hash, begin, end, bits, led)
                    .empty(),
           "pow: a wrong hash that meets the target fails SHA-256 only");
    // The workload's miner showed this pair on every tier.
    expect(!perfbench::check_pow_sha256({pow_line(0x09025d2c, 0x00b18b58)},
                                        0x09025d2c, 0x09025d2d, bits, 1)
                .empty(),
           "pow: the miner's displayed hash of 09025d2c fails SHA-256");

    expect(!perfbench::check_pow(lines, begin, end, limit, hits + 1, bits,
                                 (hits + 1) % 256)
                .empty(),
           "pow: a hits register ahead of the lines fails");
    expect(!perfbench::check_pow(lines, begin, end, limit, hits, bits,
                                 led + 1)
                .empty(),
           "pow: a wrong LED byte fails");
    expect(!perfbench::check_pow_sha256(lines, begin, end, bits, led + 1)
                .empty(),
           "pow: a LED byte off the SHA-256 count fails");
}

void
test_regex()
{
    const std::string text =
        "GET /abc GET /ABC GGET /x  GET / GET /ab1 xGET /zz POST /a ";
    const std::vector<uint8_t> bytes(text.begin(), text.end());
    expect(perfbench::count_requests(bytes) == 3,
           "regex: the host matcher counts complete requests");
    const uint64_t n = bytes.size();
    expect(perfbench::check_regex(bytes, n, n, 3).empty(),
           "regex: a correct session passes");
    expect(!perfbench::check_regex(bytes, n - 1, n - 1, 3).empty(),
           "regex: a dropped byte fails");
    expect(!perfbench::check_regex(bytes, n, n - 1, 3).empty(),
           "regex: a byte the design did not consume fails");
    expect(!perfbench::check_regex(bytes, n, n, 2).empty(),
           "regex: a missed match fails");
}

void
test_scores()
{
    expect(perfbench::nw_score({0, 1, 2}, {0, 1, 2}) == 6,
           "nw: identical sequences score 2 per symbol");
    expect(perfbench::nw_score({0}, {1}) == -1, "nw: one mismatch scores -1");
    expect(perfbench::nw_score({0, 1}, {1}) == 1,
           "nw: a gap and a match score 1");

    std::vector<perfbench::Aligner> aligners(2);
    aligners[0] = {0, 4, 0, 7, 3, 5, 1};
    aligners[1] = {1, 5, 2, 3, 0, 1, 2};
    std::vector<std::string> lines;
    for (const perfbench::Aligner& a : aligners) {
        lines.push_back(
            "score " + std::to_string(a.id) + " = " +
            std::to_string(perfbench::nw_score(a.seq_a(), a.seq_b())));
    }
    expect(perfbench::check_scores(lines, aligners).empty(),
           "nw: correct score lines pass");
    std::vector<std::string> wrong = lines;
    wrong[1] = "score 1 = " +
               std::to_string(perfbench::nw_score(aligners[1].seq_a(),
                                                  aligners[1].seq_b()) +
                              1);
    expect(!perfbench::check_scores(wrong, aligners).empty(),
           "nw: a wrong score fails");
    std::vector<std::string> twice = lines;
    twice.push_back(lines[0]);
    expect(!perfbench::check_scores(twice, aligners).empty(),
           "nw: a score printed twice fails");
    expect(!perfbench::check_scores({lines[0]}, aligners).empty(),
           "nw: a missing score fails");
}

void
test_counter()
{
    expect(perfbench::check_counter((37 * 5000) & 0xffff, 37, 5000).empty(),
           "counter: inc x posedges mod 2^16 passes");
    expect(!perfbench::check_counter((37 * 5000 + 1) & 0xffff, 37, 5000)
                .empty(),
           "counter: an off-by-one count fails");
}

} // namespace

int
main()
{
    test_sha256();
    test_pow();
    test_regex();
    test_scores();
    test_counter();
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
