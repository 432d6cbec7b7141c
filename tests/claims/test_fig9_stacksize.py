"""Figure 9: context-switch time vs stack size for migratable threads.

Live stack size is swept from 8 KB to 8 MB (the paper's alloca()
experiment) through the three real stack managers on the Linux x86 model.
"""

import pytest


@pytest.fixture
def fig9(experiment):
    sizes, series = experiment("fig9")
    return (sizes, series["stack_copy"], series["isomalloc"],
            series["memory_alias"])


def test_claim5_stack_copy_unusable_past_20kb(fig9):
    sizes, copy, iso, alias = fig9
    idx20k = min(range(len(sizes)), key=lambda i: abs(sizes[i] - 20 * 1024))
    # Stack copy: linear in stack size, "unusably slow" past ~20 KB.
    assert copy[idx20k] > 10.0                    # tens of microseconds
    assert copy[-1] > 1_000.0                     # 8 MB: milliseconds
    assert copy[-1] / copy[0] > 500               # ~linear over 3 decades


def test_claim6_isomalloc_flat_and_fastest(fig9):
    sizes, copy, iso, alias = fig9
    assert max(iso) == min(iso)
    assert all(iso[i] <= alias[i] for i in range(len(sizes)))
    assert all(iso[i] <= copy[i] for i in range(len(sizes)))


def test_claim7_memory_alias_about_4us_slow_growth(fig9):
    sizes, copy, iso, alias = fig9
    # ~4 us at small sizes, grows only slowly, and beats copying
    # decisively for large stacks.
    assert 2.0 < alias[0] < 8.0
    assert alias[-1] < 10 * alias[0]              # "very slowly"
    assert alias[-1] < copy[-1] / 50              # much faster than copying
