// Lint self-test fixture: every line ending in a rule's name must trip
// that rule, and every rule in tools/lint_sim.py names at least one
// line. Never compiled.

#include <cstdio>
#include <functional>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

void
violations()
{
    std::unordered_map<int, int> m;
    for (const auto &kv : m) // unordered-iter
        (void)kv;

    // A declaration wrapped across lines is still collected.
    std::unordered_map<int, std::vector<std::pair<int, int>>>
        wrapped;
    for (const auto &kv : wrapped) // unordered-iter
        (void)kv;

    int *p = new int(7); // raw-new-delete
    delete p;            // raw-new-delete

    std::function<void()> f = [] {}; // std-function
    f();

    (void)rand();         // raw-random
    std::mt19937 rng(42); // raw-random
    (void)rng();

    std::printf("hello\n"); // std-io
}
