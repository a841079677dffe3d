/// \file
/// Host-side reference models the benchmark checks the program's outputs
/// against. None of them shares code with the cascade libraries: the
/// SHA-256, the request matcher and the alignment DP are written here from
/// their definitions, so a fault in the runtime, a compiler tier or the
/// fabric model cannot make a reference agree with it.
///
/// Every check returns an empty string when the outputs are right and a
/// one-line reason otherwise.

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SHA-256 of \p len bytes (FIPS 180-4), as eight big-endian state words.
std::vector<uint32_t> sha256(const uint8_t* data, size_t len);

/// First digest word of SHA-256 over the 4-byte big-endian \p nonce.
uint32_t pow_hash(uint32_t nonce);

/// True when \p hash has at least \p zero_bits leading zero bits.
bool pow_qualifies(uint32_t hash, uint32_t zero_bits);

/// Checks one miner session against the design's own counters. \p lines
/// are the session's display lines ("nonce %h -> hash %h"), \p begin the
/// first nonce of the sweep, and \p end, \p hits and \p led the nonce
/// register, hits register and LED byte read together at a tick boundary
/// (the sweep covered [begin, end)); \p limit is the nonce register once
/// the lines were collected. Every line must name a nonce in
/// [begin, limit) once and show a hash that meets the target; the lines
/// for [begin, end) must number exactly \p hits, so that no counted hit
/// went undisplayed or was displayed twice across rung changes; and the
/// LED byte must be \p hits mod 256.
std::string check_pow(const std::vector<std::string>& lines, uint32_t begin,
                      uint32_t end, uint32_t limit, uint64_t hits,
                      uint32_t zero_bits, uint64_t led);

/// Checks the same session against SHA-256: every displayed hash must be
/// pow_hash() of its nonce, the displayed nonces of [begin, end) must be
/// exactly the nonces whose pow_hash() meets the target, and the LED byte
/// must be their count mod 256.
std::string check_pow_sha256(const std::vector<std::string>& lines,
                             uint32_t begin, uint32_t end,
                             uint32_t zero_bits, uint64_t led);

/// Occurrences of the request pattern "GET /[a-z]+ " in \p bytes, counted
/// with std::regex (the design counts them with a hand-built DFA).
uint64_t count_requests(const std::vector<uint8_t>& bytes);

/// Checks one regex session at its end: every pushed byte reached the
/// design (\p delivered is Runtime::fifo_bytes_consumed()), the design's
/// own \p consumed register agrees, and its \p hits register equals the
/// host count over the stream.
std::string check_regex(const std::vector<uint8_t>& pushed,
                        uint64_t delivered, uint64_t consumed,
                        uint64_t hits);

/// Global Needleman-Wunsch score (match +2, mismatch -1, gap -1) of two
/// symbol sequences, by the textbook DP.
int64_t nw_score(const std::vector<int>& a, const std::vector<int>& b);

/// One aligner instance the edit loop adds: its sequences are
/// seqa[t] = (t*a_mul + a_add) % 4 and seqb[t] = (t*b_mul + b_add) % 4.
struct Aligner {
    int id = 0;
    int n = 0;
    int style = 0;
    int a_mul = 0, a_add = 0, b_mul = 0, b_add = 0;
    std::vector<int> seq_a() const;
    std::vector<int> seq_b() const;
};

/// Checks the display lines of an edit session: aligner k printed
/// "score k = <host DP score>" exactly once for every k in \p aligners,
/// and nothing else.
std::string check_scores(const std::vector<std::string>& lines,
                         const std::vector<Aligner>& aligners);

/// A tenant counter adds \p inc on every posedge into a 16-bit register.
std::string check_counter(uint64_t value, uint64_t inc, uint64_t posedges);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
