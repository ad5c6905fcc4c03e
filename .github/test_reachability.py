#!/usr/bin/env python3
"""Tests of reachability.py's collect-and-compare logic on synthetic gcov
JSON documents (no compiler or gcov needed).

    python3 .github/test_reachability.py
"""

import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reachability  # noqa: E402


def function(name, start, end, count):
    return {"name": name, "demangled_name": name, "start_line": start,
            "end_line": end, "execution_count": count}


def source_file(path, functions):
    """A gcov file entry whose lines carry their function's count."""
    lines = [{"line_number": n, "count": f["execution_count"]}
             for f in functions
             for n in range(f["start_line"], f["end_line"] + 1)]
    return {"file": path, "functions": functions, "lines": lines}


def document(*files, cwd="/elsewhere/build/src/core"):
    return {"current_working_directory": cwd, "files": list(files)}


class AuditTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.root = tmp.name
        os.makedirs(os.path.join(self.root, "src", "core"))
        with open(os.path.join(self.root, "src", "core", "a.cc"), "w") as f:
            f.write("int f() {\n  return 1;\n}\n"
                    "int g() {\n  return 2;\n}\n"
                    "void h() {\n  [] {}();\n}\n")

    def audit(self, docs, allow_text=None):
        allow = (reachability.parse_allow(allow_text)
                 if allow_text is not None else None)
        out = io.StringIO()
        status = reachability.audit(self.root, docs, allow, out)
        return status, out.getvalue()

    def docs(self, g_count=0):
        return [document(source_file("src/core/a.cc", [
            function("f()", 1, 3, 5),
            function("g()", 4, 6, g_count),
        ]))]

    def test_listed_unreached_function_passes(self):
        status, out = self.audit(self.docs(),
                                 "test-support src/core/a.cc g()\n")
        self.assertEqual(status, 0, out)
        self.assertIn("== 1 unreached functions ==", out)
        self.assertIn("src/core/a.cc:4-6  g()", out)

    def test_unlisted_unreached_function_fails(self):
        status, out = self.audit(self.docs(), "# nothing listed\n")
        self.assertEqual(status, 1)
        self.assertIn("UNLISTED src/core/a.cc:4-6  g()", out)

    def test_stale_entry_fails(self):
        status, out = self.audit(self.docs(g_count=1),
                                 "test-support src/core/a.cc g()\n")
        self.assertEqual(status, 1)
        self.assertIn("STALE test-support src/core/a.cc  g()", out)

    def test_entry_for_a_function_that_does_not_exist_is_stale(self):
        status, out = self.audit(
            self.docs(),
            "test-support src/core/a.cc g()\nfault src/core/a.cc gone()\n")
        self.assertEqual(status, 1)
        self.assertIn("STALE fault src/core/a.cc  gone()", out)

    def test_prefix_mapped_relative_path_is_counted(self):
        # -ffile-prefix-map records `src/...` relative to the checkout
        # while the working directory is still the build tree; the
        # entry must resolve against the root, not that directory.
        status, out = self.audit(self.docs())
        self.assertEqual(status, 0)
        self.assertIn("src/core/a.cc:4-6  g()", out)
        self.assertIn("src/ lines executed: 3 of 6", out)

    def test_absolute_path_under_the_root_is_counted(self):
        path = os.path.join(self.root, "src", "core", "a.cc")
        docs = [document(source_file(path, [function("g()", 4, 6, 0)]))]
        status, out = self.audit(docs)
        self.assertIn("src/core/a.cc:4-6  g()", out)

    def test_zero_src_files_fails(self):
        docs = [document(
            source_file("/usr/include/c++/12/vector",
                        [function("std::vector<int>::size() const", 1, 3,
                                  0)]),
            source_file("tests/test_a.cc", [function("t()", 1, 3, 0)]))]
        with self.assertRaises(SystemExit):
            self.audit(docs)
        with self.assertRaises(SystemExit):
            self.audit([])

    def test_counts_add_up_across_trees_and_copies(self):
        # The same inline function compiled into two trees: reached if
        # either tree ran it.
        docs = [
            document(source_file("src/core/a.cc",
                                 [function("f()", 1, 3, 0)])),
            document(source_file("src/core/a.cc",
                                 [function("f()", 1, 3, 2)])),
        ]
        status, out = self.audit(docs)
        self.assertIn("== 0 unreached functions ==", out)

    def test_lambda_ordinals_do_not_rename_an_entry(self):
        lam = "h()::{lambda()#%d}::operator()() const"
        docs = [document(source_file("src/core/a.cc", [
            function("h()", 7, 9, 1), function(lam % 3, 8, 8, 0)]))]
        status, out = self.audit(
            docs, "model src/core/a.cc h()::{lambda()#}::operator()() "
                  "const\n")
        self.assertEqual(status, 0, out)

    def test_template_copies_share_one_elided_name(self):
        docs = [document(source_file("src/core/a.cc", [
            function("void fatal<char const (&) [12]>(char const (&) [12])",
                     1, 3, 0),
            function("void fatal<char const (&) [40], int>"
                     "(char const (&) [40], int&&)", 1, 3, 0)]))]
        status, out = self.audit(docs, "fault src/core/a.cc "
                                       "void fatal<...>(...)\n")
        self.assertEqual(status, 0, out)


class ParseAllowTest(unittest.TestCase):
    def test_names_keep_their_spaces(self):
        allow = reachability.parse_allow(
            "# comment\n\n"
            "fallback src/common/simd.cc  rif::f(int, double) const\n")
        self.assertEqual(
            allow, {("src/common/simd.cc", "rif::f(int, double) const"):
                    "fallback"})

    def test_rejects_unknown_labels_duplicates_and_short_lines(self):
        for text in ("dead src/a.cc f()\n",
                     "fault src/a.cc f()\nmodel src/a.cc f()\n",
                     "fault src/a.cc\n"):
            with self.assertRaises(ValueError, msg=text):
                reachability.parse_allow(text)


class NormalizeTest(unittest.TestCase):
    def test_standard_spellings_shrink(self):
        name = ("f(std::vector<std::__cxx11::basic_string<char, "
                "std::char_traits<char>, std::allocator<char> >, "
                "std::allocator<std::__cxx11::basic_string<char, "
                "std::char_traits<char>, std::allocator<char> > > > const&)")
        self.assertEqual(reachability.normalize(name),
                         "f(std::vector<std::string> const&)")

    def test_abi_tags_and_ordinals_go(self):
        self.assertEqual(
            reachability.normalize("g[abi:cxx11]()::{lambda(int)#12}"),
            "g()::{lambda(int)#}")


if __name__ == "__main__":
    unittest.main()
