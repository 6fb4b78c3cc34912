#include "core/signature.hpp"

#include "util/logging.hpp"

namespace mercury {

Signature::Signature(int bits)
    : bits_(bits)
{
    if (bits < 0)
        panic("negative signature length ", bits);
    if (bits > 64)
        heap_.assign(static_cast<size_t>(wordsFor(bits)), 0);
}

Signature
Signature::fromWords(int bits, const uint64_t *words)
{
    Signature out(bits);
    if (bits <= 0)
        return out;
    const int nw = wordsFor(bits);
    for (int w = 0; w < nw; ++w)
        out.wordRef(w) = words[w];
    // Keep the invariant the word-wise operator== and hash() rely on:
    // bits past the length are zero.
    if (bits & 63)
        out.wordRef(nw - 1) &= (1ull << (bits & 63)) - 1;
    return out;
}

void
Signature::checkIndex(int i) const
{
    if (i < 0 || i >= bits_)
        panic("signature bit index ", i, " out of range for ", bits_,
              " bits");
}

void
Signature::appendBit(bool value)
{
    ++bits_;
    if (bits_ == 65) {
        // Outgrew the inline word: every word moves to the vector.
        heap_ = {word0_, 0};
        word0_ = 0;
    } else if (bits_ > 65 &&
               wordsFor(bits_) > static_cast<int>(heap_.size())) {
        heap_.push_back(0);
    }
    setBit(bits_ - 1, value);
}

Signature
Signature::prefix(int bits) const
{
    if (bits > bits_)
        panic("prefix of ", bits, " bits from a ", bits_,
              "-bit signature");
    Signature out(bits);
    for (int w = 0; w < wordsFor(bits); ++w)
        out.wordRef(w) = word(w);
    if (bits & 63)
        out.wordRef(wordsFor(bits) - 1) &= (1ull << (bits & 63)) - 1;
    return out;
}

std::string
Signature::str() const
{
    std::string s;
    s.reserve(static_cast<size_t>(bits_));
    for (int i = bits_ - 1; i >= 0; --i)
        s.push_back(bit(i) ? '1' : '0');
    return s;
}

} // namespace mercury
