/**
 * @file
 * RPQ signatures: variable-length bit sequences produced by random
 * projection + sign quantization (§II-A). Two input vectors with the
 * same signature are considered similar.
 *
 * Storage is small-buffer optimized: a signature of up to 64 bits
 * lives in one inline word, and only longer ones allocate a word
 * vector. Either way the packed words are contiguous (words()), in
 * the layout the sign kernels (signPack, signFrame) write, the MCACHE
 * probes compare and the records store, so the packed-word forms
 * (hashWords, the word probes) and the Signature forms agree by
 * construction. hashWords is inline: the detection pipeline takes a
 * set index per row from it.
 */

#ifndef MERCURY_CORE_SIGNATURE_HPP
#define MERCURY_CORE_SIGNATURE_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace mercury {

/** A bit sequence of explicit length with value semantics. */
class Signature
{
  public:
    /** Empty signature (length 0). */
    Signature() = default;

    /** Zero-initialized signature of the given bit length. */
    explicit Signature(int bits);

    /**
     * Signature from pre-packed little-endian words (the sign-pack
     * kernel's output format): bit i is (words[i/64] >> (i%64)) & 1.
     * Bits beyond `bits` in the last word are masked off.
     */
    static Signature fromWords(int bits, const uint64_t *words);

    /** 64-bit words needed for a bit length. */
    static int wordsFor(int bits) { return (bits + 63) / 64; }

    /**
     * hash() of the signature whose packed words are `words`
     * (wordsFor(bits) of them, bits past `bits` zero): the detection
     * pipeline takes set indices from packed words with it. Inline, so
     * a row's set index pays no call.
     */
    static uint64_t hashWords(int bits, const uint64_t *words)
    {
        uint64_t h = hashSeed(bits);
        for (int w = 0; w < wordsFor(bits); ++w)
            h = hashStep(h, words[w]);
        return hashFinish(h);
    }

    /**
     * hashWords of a signature of 1..64 bits, whose one word is `word`:
     * no loop, no branch.
     */
    static uint64_t hashWord(int bits, uint64_t word)
    {
        return hashFinish(hashStep(hashSeed(bits), word));
    }

    int bits() const { return bits_; }

    /** Read bit i (0-based). */
    bool bit(int i) const
    {
        checkIndex(i);
        return (word(i >> 6) >> (i & 63)) & 1;
    }

    /** Set bit i (0-based). */
    void setBit(int i, bool value)
    {
        checkIndex(i);
        const uint64_t mask = 1ull << (i & 63);
        uint64_t &w = wordRef(i >> 6);
        if (value)
            w |= mask;
        else
            w &= ~mask;
    }

    /** Append one bit, growing the length (adaptive growth §III-D). */
    void appendBit(bool value);

    /**
     * Truncated copy with the first `bits` bits (signatures of
     * different adaptive lengths compare on their common prefix only
     * via this helper; operator== requires equal lengths).
     */
    Signature prefix(int bits) const;

    bool operator==(const Signature &other) const
    {
        return bits_ == other.bits_ && word0_ == other.word0_ &&
               heap_ == other.heap_;
    }
    bool operator!=(const Signature &other) const
    {
        return !(*this == other);
    }

    /** Deterministic 64-bit hash (stable across platforms/runs). */
    uint64_t hash() const { return hashWords(bits_, words()); }

    /**
     * The wordsFor(bits()) packed words of the fromWords layout (bit i
     * lives at words()[i/64] bit i%64), bits past the length zero.
     */
    const uint64_t *words() const
    {
        return bits_ > 64 ? heap_.data() : &word0_;
    }

    /** Bit string, most significant first, e.g. "10110". */
    std::string str() const;

  private:
    // SplitMix64-style mixing over the words plus the length, so
    // signatures of different lengths never alias.
    static constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;
    static uint64_t hashSeed(int bits)
    {
        return kGolden ^ static_cast<uint64_t>(bits);
    }
    static uint64_t hashStep(uint64_t h, uint64_t word)
    {
        h ^= word + kGolden + (h << 6) + (h >> 2);
        h *= 0xBF58476D1CE4E5B9ull;
        return h ^ (h >> 27);
    }
    static uint64_t hashFinish(uint64_t h)
    {
        h *= 0x94D049BB133111EBull;
        return h ^ (h >> 31);
    }

    int bits_ = 0;
    uint64_t word0_ = 0;         ///< the word of bits_ <= 64 (else 0)
    std::vector<uint64_t> heap_; ///< every word of bits_ > 64 (else empty)

    uint64_t word(int w) const { return words()[w]; }
    uint64_t &wordRef(int w)
    {
        return bits_ > 64 ? heap_[static_cast<size_t>(w)] : word0_;
    }
    void checkIndex(int i) const;
};

} // namespace mercury

#endif // MERCURY_CORE_SIGNATURE_HPP
