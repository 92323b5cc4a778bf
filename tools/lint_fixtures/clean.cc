// Lint self-test fixture: idiomatic repo patterns that must NOT trip
// any rule in tools/lint_sim.py (false-positive guard). Never
// compiled.

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

void
clean()
{
    // Unordered lookup (not iteration) is fine.
    std::unordered_map<int, int> m;
    m.emplace(1, 2);
    auto it = m.find(1);
    (void)it;

    // Ordered iteration is fine.
    std::map<int, int> sorted;
    for (const auto &kv : sorted)
        (void)kv;

    // A vector of unordered maps iterates in order, also when its
    // declaration wraps.
    std::vector<std::unordered_map<int, int>>
        per_core;
    for (const auto &map : per_core)
        (void)map;

    // An annotated unordered fold is allowed when commutative.
    // lint: allow(unordered-iter) — commutative fold.
    for (const auto &kv : m)
        (void)kv;

    // Smart pointers and containers, not raw new/delete.
    auto owned = std::make_unique<int>(7);
    std::vector<int> grow;
    grow.push_back(*owned);

    // Words *containing* the banned tokens must not match.
    int renewal = 0;     // "new" inside an identifier
    int deleted_ok = 1;  // "delete" inside an identifier
    (void)renewal;
    (void)deleted_ok;

    // A string mentioning std::cout is data, not I/O.
    const char *doc = "never write std::cout in src/";
    (void)doc;
}
