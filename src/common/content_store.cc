#include "common/content_store.hh"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

namespace spp {

std::string
sanitizeStoreName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name)
        out += (std::isalnum(static_cast<unsigned char>(c)) ||
                c == '.' || c == '_' || c == '-')
            ? c
            : '_';
    return out;
}

std::string
contentStorePath(const std::string &dir, const std::string &name,
                 std::uint64_t key_hash,
                 const std::string &extension)
{
    static const char *hex = "0123456789abcdef";
    std::string digits(16, '0');
    for (int i = 15; i >= 0; --i) {
        digits[static_cast<std::size_t>(i)] = hex[key_hash & 0xf];
        key_hash >>= 4;
    }
    return dir + "/" + sanitizeStoreName(name) + "-" + digits +
        extension;
}

bool
readFileBytes(const std::string &path, std::vector<std::uint8_t> &out,
              std::string &err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    in.seekg(0, std::ios::beg);
    out.resize(static_cast<std::size_t>(size));
    if (size > 0)
        in.read(reinterpret_cast<char *>(out.data()), size);
    if (!in) {
        err = "short read from " + path;
        return false;
    }
    return true;
}

bool
writeFileBytesAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &bytes,
                     std::string &err)
{
    // A fresh store directory (an option pointing somewhere new) is
    // created on first write rather than up front, so read-only
    // consumers never touch the filesystem.
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            err = "cannot create directory " + parent.string() +
                ": " + ec.message();
            return false;
        }
    }
    // Unique temp name per process *and* call: concurrent writers of
    // the same deterministic entry never share a partially written
    // file, and the final rename is atomic.
    static std::atomic<unsigned> seq{0};
    const std::string tmp = path + ".tmp." +
        std::to_string(::getpid()) + "." +
        std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream of(tmp, std::ios::binary | std::ios::trunc);
        if (!of) {
            err = "cannot create " + tmp;
            return false;
        }
        of.write(reinterpret_cast<const char *>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
        if (!of) {
            err = "short write to " + tmp;
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        err = "cannot rename " + tmp + " to " + path;
        return false;
    }
    return true;
}

bool
writeFileTextAtomic(const std::string &path, const std::string &text,
                    std::string &err)
{
    std::vector<std::uint8_t> bytes(text.begin(), text.end());
    return writeFileBytesAtomic(path, bytes, err);
}

} // namespace spp
