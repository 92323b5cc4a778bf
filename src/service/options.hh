/**
 * @file
 * Result-store configuration (see service/result_store.hh).
 *
 * A tiny value struct the bench CLI and the environment fill in,
 * inert unless a directory is set, so the default experiment path
 * never touches the filesystem.
 */

#ifndef SPP_SERVICE_OPTIONS_HH
#define SPP_SERVICE_OPTIONS_HH

#include <cstdlib>
#include <string>

namespace spp {

/** Where (and whether) experiment results are cached on disk. */
struct ResultStoreOptions
{
    /** Store directory; empty disables the store entirely. */
    std::string dir;

    /** Re-simulate and overwrite even when a warm entry exists
     * (--result-refresh); the store still populates. */
    bool refresh = false;

    bool enabled() const { return !dir.empty(); }

    /** Seed from the environment: SPP_RESULT_STORE names the store
     * directory (the CLI flag overrides it). */
    static ResultStoreOptions
    fromEnv()
    {
        ResultStoreOptions opt;
        if (const char *dir = std::getenv("SPP_RESULT_STORE"))
            opt.dir = dir;
        return opt;
    }
};

} // namespace spp

#endif // SPP_SERVICE_OPTIONS_HH
