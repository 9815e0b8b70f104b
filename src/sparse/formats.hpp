/**
 * @file
 * Compressed sparse filter storage models (paper §IV-C): Blocked
 * ELLPACK (the format used by all the paper's evaluations), CSR, and
 * CSC. Reports original vs compressed storage, split into value data
 * and metadata, for the SPARSE_REPORT and the Fig. 7 storage study.
 */

#ifndef SCALESIM_SPARSE_FORMATS_HH
#define SCALESIM_SPARSE_FORMATS_HH

#include "common/config.hpp"
#include "sparse/pattern.hpp"

namespace scalesim::sparse
{

/** Storage accounting for one compressed filter matrix. */
struct StorageReport
{
    SparseRep rep = SparseRep::Dense;
    /** Dense K x N storage, bits. */
    std::uint64_t originalBits = 0;
    /** Compressed value storage, bits. */
    std::uint64_t valueBits = 0;
    /** Index/pointer metadata, bits. */
    std::uint64_t metadataBits = 0;

    std::uint64_t totalBits() const { return valueBits + metadataBits; }
    double
    compressionRatio() const
    {
        return totalBits()
            ? static_cast<double>(originalBits) / totalBits() : 0.0;
    }
    double totalMB() const
    {
        return static_cast<double>(totalBits()) / 8.0 / 1024.0 / 1024.0;
    }
};

/** ceil(log2(x)), with log2(1) = 1 bit minimum for a stored index. */
std::uint32_t indexBits(std::uint64_t x);

/**
 * Compute the storage of a K x N filter compressed with `rep` under
 * `pattern`. `word_bits` is the element width (the paper's validations
 * use 16-bit quantized weights; SCALE-Sim defaults to 8).
 *
 * Blocked ELLPACK: one value + one log2(M)-bit intra-block index per
 * nonzero (Fig. 6). CSR: values + column indices + row pointers.
 * CSC: values + row indices + column pointers.
 */
StorageReport storageFor(SparseRep rep, const SparsityPattern& pattern,
                         std::uint64_t n_cols,
                         std::uint32_t word_bits = 8);

} // namespace scalesim::sparse

#endif // SCALESIM_SPARSE_FORMATS_HH
