/**
 * @file
 * Global buffer traffic accounting. The timing models are
 * compute-bound (the paper's speedups come from skipped dot
 * products), but the buffer model tracks the data movement MERCURY
 * adds (signature table spills to memory between forward and backward
 * passes) and removes (skipped input-vector reloads), so benches can
 * report traffic alongside cycles.
 */

#ifndef MERCURY_SIM_GLOBAL_BUFFER_HPP
#define MERCURY_SIM_GLOBAL_BUFFER_HPP

#include <cstdint>

namespace mercury {

/** Byte-level traffic accounting for the on-chip global buffer. */
class GlobalBuffer
{
  public:
    /** @param capacity_bytes usable buffer capacity. */
    explicit GlobalBuffer(uint64_t capacity_bytes = 108 * 1024);

    uint64_t capacity() const { return capacity_; }

    /** Record weight/input/output/signature traffic. */
    void readWeights(uint64_t bytes);
    void readInputs(uint64_t bytes);
    void writeOutputs(uint64_t bytes);
    void signatureTraffic(uint64_t bytes);

    /**
     * SignatureRecord occupancy (§III-C2): a layer's record is held
     * from its forward detection pass until its gradient passes
     * consume it. holdRecord tracks the live bytes and peak; any part
     * of the working set that no longer fits the buffer spills to
     * memory, charged as signature traffic (one write out now, one
     * read back at the backward pass). releaseRecord drops the bytes
     * once the backward pass has replayed them.
     */
    void holdRecord(uint64_t bytes);
    void releaseRecord(uint64_t bytes);
    uint64_t recordBytesHeld() const { return recordBytesHeld_; }
    uint64_t peakRecordBytes() const { return peakRecordBytes_; }

    uint64_t totalBytes() const;
    uint64_t weightBytes() const { return weightBytes_; }
    uint64_t inputBytes() const { return inputBytes_; }
    uint64_t outputBytes() const { return outputBytes_; }
    uint64_t signatureBytes() const { return signatureBytes_; }

    /**
     * True if a working set of the given size fits in the buffer
     * (used by tests to sanity check tiling assumptions).
     */
    bool fits(uint64_t bytes) const { return bytes <= capacity_; }

    void reset();

  private:
    uint64_t capacity_;
    uint64_t weightBytes_ = 0;
    uint64_t inputBytes_ = 0;
    uint64_t outputBytes_ = 0;
    uint64_t signatureBytes_ = 0;
    uint64_t recordBytesHeld_ = 0;
    uint64_t peakRecordBytes_ = 0;
};

} // namespace mercury

#endif // MERCURY_SIM_GLOBAL_BUFFER_HPP
