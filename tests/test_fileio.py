"""The shared table and JSON formats: exact bytes of every writer, and the
diagnostics of the one table reader."""

import re
import sys

import numpy as np
import pytest

from ikdlab.align import (AlignedDataset, write_dataset_csv,
                          write_delay_scan_csv, write_histogram_csv)
from ikdlab.cli import write_trace_csv
from ikdlab.datalog import ImuLog, JoyLog, write_imu_csv, write_joy_csv
from ikdlab.errors import ParseError, ValidationError
from ikdlab.evalkit import CircleReport, emit_report, write_comparison_csv
from ikdlab.fileio import (ROW_BLOCK, read_json, read_record, read_table,
                           write_json, write_table)
from ikdlab.mlp import LossCurve, write_loss_csv
from ikdlab.simcore import SimTrace

from conftest import write_buffer

GOLDEN = [
    ("joy", lambda p: write_joy_csv(JoyLog(t=[0.0, 0.025], v=[1.5, 2.0],
                                           av=[-0.1, 0.3]), p),
     "t,v,av\n0.0,1.5,-0.1\n0.025,2.0,0.3\n"),
    ("imu", lambda p: write_imu_csv(ImuLog(t=[0.0, 0.025], av_z=[0.1, 1e-20]), p),
     "t,av_z\n0.0,0.1\n0.025,1e-20\n"),
    ("dataset", lambda p: write_dataset_csv(
        AlignedDataset(v_joy=[1.0, 2.0], av_joy=[0.5, -0.25], av_imu=[0.45, -0.2]), p),
     "idx,v_joy,av_joy,av_imu\n0,1.0,0.5,0.45\n1,2.0,-0.25,-0.2\n"),
    ("histogram", lambda p: write_histogram_csv(np.array([2, 0, 1]), (0.0, 0.3), p),
     "bin_lo,bin_hi,count\n0.0,0.09999999999999999,2\n"
     "0.09999999999999999,0.19999999999999998,0\n0.19999999999999998,0.3,1\n"),
    ("delay_scan", lambda p: write_delay_scan_csv(
        np.array([0.0, 0.001, 0.002]), np.array([np.inf, 0.5, 0.125]), p),
     "delay,objective\n0.001,0.5\n0.002,0.125\n"),
    ("loss", lambda p: write_loss_csv(LossCurve(train_mse=np.array([0.5, 0.25]),
                                                test_mse=np.array([0.75, 0.125])), p),
     "epoch,train_mse,test_mse\n0,0.5,0.75\n1,0.25,0.125\n"),
    ("circle_report", lambda p: emit_report(
        [CircleReport(c_commanded=0.5, r_fit=2.0, ikd_enabled=True),
         CircleReport(c_commanded=-1, r_fit=1.0, ikd_enabled=False)], p),
     "c_commanded,r_fit,c_measured,deviation_pct,ikd_enabled\n"
     "0.5,2.0,0.5,0.0,1\n-1.0,1.0,1.0,0.0,0\n"),
    ("comparison", lambda p: write_comparison_csv([(0.5, 0.45, 0.49, 2.0)], p),
     "commanded_c,executed_c,ikd_c,deviation_pct\n0.5,0.45,0.49,2.0\n"),
    ("trace", lambda p: write_trace_csv(SimTrace(
        dt=0.1, x=[0.0, 1.0, 2.0], y=[0.0, 0.0, 0.5], heading=[0.0, 0.1, 0.2],
        v=[1.0, 1.0, 1.0], av=[0.0, 0.2, 0.2], av_lag=[0.0, 0.2, 0.2],
        command_first=[0], command_v=[1.0], command_c=[0.2]), p),
     "t,x,y,heading,v,av\n0.0,0.0,0.0,0.0,1.0,0.0\n"
     "0.1,1.0,0.0,0.1,1.0,0.2\n0.2,2.0,0.5,0.2,1.0,0.2\n"),
    ("buffer", lambda p: write_buffer(p, [(1.0, 0.1), (2, -0.25)]),
     "1.0,0.1\n2.0,-0.25\n"),
]


@pytest.mark.parametrize("write, expected", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_writer_bytes_are_golden(tmp_path, write, expected):
    path = tmp_path / "table.csv"
    write(str(path))
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_table_spans_row_blocks(tmp_path):
    n = 2 * ROW_BLOCK + 3
    x = np.arange(n) / 7.0
    path = tmp_path / "long.csv"
    write_table(str(path), "i,x", (np.arange(n), x))
    expected = "i,x\n" + "".join(f"{i},{float(v)!r}\n" for i, v in enumerate(x))
    assert path.read_text(encoding="utf-8") == expected
    assert np.array_equal(read_table(str(path), "i,x")[:, 1], x)


@pytest.mark.parametrize("text, header, expected", [
    ("x,y\n1,2\n", "a,b", r"t\.csv:1: expected header 'a,b', got 'x,y'"),
    ("", "a,b", r"t\.csv:1: expected header 'a,b', got ''"),
    ("a,b\n1,2\n3\n", "a,b", r"t\.csv:3: expected 2 columns, got 1"),
    ("a,b\n1,2,3\n", "a,b", r"t\.csv:2: expected 2 columns, got 3"),
    ("a,b\n1,x\n", "a,b", r"t\.csv:2: non-numeric field in '1,x'"),
    ("a,b\n1,\n", "a,b", r"t\.csv:2: non-numeric field"),
    ("a,b\n1,2\n \t \n3,4\n\n", "a,b", [[1.0, 2.0], [3.0, 4.0]]),
    ("a,b\n", "a,b", np.empty((0, 2))),
    ("1,2\n\n3,4\n", None, [[1.0, 2.0], [3.0, 4.0]]),
    ("1,2\n3\n", None, r"t\.csv:2: expected 2 columns, got 1"),
    ("a,b\n1,2\n", None, r"t\.csv:1: non-numeric field in 'a,b'"),
    ("\n \n", None, np.empty((0, 0))),
])
def test_read_table_rows_and_diagnostics(tmp_path, text, header, expected):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    if isinstance(expected, str):
        with pytest.raises(ParseError, match=expected):
            read_table(str(path), header)
    else:
        rows = read_table(str(path), header)
        assert rows.dtype == np.float64
        assert rows.shape == np.shape(expected)
        assert np.array_equal(rows, expected)


@pytest.mark.parametrize("raw, header, line, byte", [
    (b"t,v,av\n0,1,2\n\xff,1,2\n", "t,v,av", 3, 0xff),
    (b"t,\xe9v,av\n0,1,2\n", "t,v,av", 1, 0xe9),
    # past the text decoder's first chunk; a multi-byte lead cut short
    (b"t,v,av\n" + b"0,1,2\n" * 5000 + b"1,2,\xc3\n", "t,v,av", 5002, 0xc3),
    (b"1,2\n\n3,\x80\n", None, 3, 0x80),
])
def test_read_table_names_line_of_first_non_utf8_byte(tmp_path, raw, header, line, byte):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    with pytest.raises(ParseError) as exc:
        read_table(str(path), header)
    assert str(exc.value) == f"{path}:{line}: not valid UTF-8 (byte 0x{byte:02x})"


def test_read_json_names_line_of_first_non_utf8_byte(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{\n  "a": "\xff"\n}\n')
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: not valid UTF-8 (byte 0xff)")):
        read_json(str(path))


@pytest.mark.parametrize("text, header, lines", [
    ("a,b\n1,2\n3,4\n", "a,b", [2, 3]),
    ("a,b\n\n1,2\n \t \n\n3,4\n\n5,6\n", "a,b", [3, 6, 8]),
    ("\n1,2\n\n3,4\n", None, [2, 4]),
])
def test_row_line_counts_past_blank_lines(tmp_path, text, header, lines):
    path = tmp_path / "t.csv"
    path.write_text(text, encoding="utf-8")
    assert len(read_record(str(path), header, lambda rows: rows)) == len(lines)
    for k, line in enumerate(lines):
        def fail_row_k(rows):
            raise ValidationError(f"row {k} of {len(rows)} is bad", row=k)
        with pytest.raises(ValidationError) as exc:
            read_record(str(path), header, fail_row_k)
        assert str(exc.value) == f"{path}:{line}: row {k} of {len(lines)} is bad"
        assert exc.value.row is None   # the row is in the message now


def test_read_record_raises_an_error_without_a_row_unchanged(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    refusals = [ValidationError("channel lengths differ"),
                ParseError(f"{path}: no rows"), MemoryError("out of memory")]
    for refusal in refusals:
        def refuse(rows):
            raise refusal
        with pytest.raises(type(refusal)) as exc:
            read_record(str(path), "a,b", refuse)
        assert exc.value is refusal


def test_write_json_layout(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"b": [1, 2.5], "a": True})
    assert path.read_bytes() == b'{\n  "a": true,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "doc.json"
    write_json(str(path), {"inf": float("inf"), "runs": [(1.0, float("-inf")),
                                                          {"nan": float("nan")}]})
    assert path.read_bytes() == (b'{\n  "inf": null,\n  "runs": [\n    [\n      1.0,\n'
                                 b'      null\n    ],\n    {\n      "nan": null\n'
                                 b'    }\n  ]\n}\n')


@pytest.mark.parametrize("text, reason", [
    pytest.param('{"a": 1' + "0" * 5000 + "}", "Exceeds the limit",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this Python has no digit limit")),
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth"),
], ids=["integer-past-digit-limit", "nested-too-deep"])
def test_read_json_refuses_what_the_decoder_cannot_hold(tmp_path, text, reason):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(f"{path}: not valid JSON (") + ".*"
                       + reason):
        read_json(str(path))
