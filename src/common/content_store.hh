/**
 * @file
 * Content-addressed store machinery and the file I/O it shares
 * with the trace codec.
 *
 * The result store (service/result_store.hh) keeps one experiment
 * result per config/workload/git key on disk, named by *what
 * produced it* rather than by a caller-chosen name. Its discipline:
 *
 *  - Keys are FNV-1a hashes of a canonical human-readable
 *    "schema k=v k=v ..." preimage (ContentKey), so every key is
 *    auditable: the preimage is stored next to the payload and in
 *    run manifests.
 *  - Entry paths are "dir/<sanitized name>-<16 hex digits>.<ext>";
 *    names are sanitized to filesystem-safe characters.
 *  - Writes go through a unique temp file + atomic rename
 *    (writeFileBytesAtomic): concurrent writers of the same
 *    deterministic content race harmlessly, and a crash never leaves
 *    a half-written entry behind. The store directory is created on
 *    demand at first write, so read-only consumers never touch the
 *    filesystem. `.spptrace` files are written the same way.
 *  - Loads are strict: a missing, unreadable or short file reports a
 *    descriptive error instead of partial bytes; content validation
 *    (checksums, schema checks) stays with the caller's codec.
 */

#ifndef SPP_COMMON_CONTENT_STORE_HH
#define SPP_COMMON_CONTENT_STORE_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hh"

namespace spp {

/**
 * Builds the canonical key preimage ("schema k=v k=v ...") and its
 * FNV-1a hash. Field order is part of the key, so call sites must
 * append in one fixed order; values render exactly as operator<<
 * prints them (doubles in the default 6-significant-digit form).
 */
class ContentKey
{
  public:
    explicit ContentKey(const std::string &schema) { os_ << schema; }

    template <typename T>
    ContentKey &
    field(const char *name, const T &value)
    {
        os_ << ' ' << name << '=' << value;
        return *this;
    }

    /** The canonical preimage accumulated so far. */
    std::string describe() const { return os_.str(); }

    /** FNV-1a hash of describe(). */
    std::uint64_t hash() const { return fnv1a64(os_.str()); }

  private:
    std::ostringstream os_;
};

/** @p name with every character outside [A-Za-z0-9._-] replaced by
 * '_'; keeps store entries shell- and filesystem-safe. */
std::string sanitizeStoreName(const std::string &name);

/** Entry path: dir/<sanitized name>-<16 hex digits><extension>.
 * @p extension includes its leading dot (e.g. ".spptrace"). */
std::string contentStorePath(const std::string &dir,
                             const std::string &name,
                             std::uint64_t key_hash,
                             const std::string &extension);

/** Slurp a file; false + @p err when unreadable or short. */
bool readFileBytes(const std::string &path,
                   std::vector<std::uint8_t> &out, std::string &err);

/**
 * Write via a unique temp file + atomic rename, creating the parent
 * directory on demand, so two processes writing the same
 * (deterministic) entry can race harmlessly.
 */
bool writeFileBytesAtomic(const std::string &path,
                          const std::vector<std::uint8_t> &bytes,
                          std::string &err);

/** writeFileBytesAtomic for text payloads (JSON documents). */
bool writeFileTextAtomic(const std::string &path,
                         const std::string &text, std::string &err);

} // namespace spp

#endif // SPP_COMMON_CONTENT_STORE_HH
