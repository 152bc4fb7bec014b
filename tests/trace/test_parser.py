"""Trace-format parsers."""

import pytest

from repro.common.errors import TraceFormatError
from repro.common.units import BLOCK_SIZE
from repro.trace.model import OP_READ, OP_WRITE
from repro.trace.parser import load_trace, parse_ali, parse_csv, parse_msr


def test_parse_csv_with_header():
    lines = [
        "timestamp_us,op,offset_bytes,size_bytes",
        f"0,W,0,{BLOCK_SIZE}",
        f"100,R,{BLOCK_SIZE},{2 * BLOCK_SIZE}",
    ]
    tr = parse_csv(lines)
    assert len(tr) == 2
    assert tr.ops[0] == OP_WRITE and tr.ops[1] == OP_READ
    assert tr.offsets[1] == 1 and tr.sizes[1] == 2


def test_parse_csv_skips_comments_and_blanks():
    lines = ["# comment", "", f"0,W,0,{BLOCK_SIZE}"]
    assert len(parse_csv(lines)) == 1


def test_parse_csv_subblock_requests_cover_blocks():
    # 1 byte at offset 4095 straddles nothing: one block.
    tr = parse_csv([f"0,W,{BLOCK_SIZE - 1},2"])
    # bytes [4095, 4097) touch blocks 0 and 1
    assert tr.offsets[0] == 0 and tr.sizes[0] == 2


def test_parse_csv_rejects_malformed():
    with pytest.raises(TraceFormatError):
        parse_csv(["0,W,1"])
    with pytest.raises(TraceFormatError):
        parse_csv(["0,X,0,4096"])
    with pytest.raises(TraceFormatError):
        parse_csv([f"0,W,0,{BLOCK_SIZE}", "zzz,W,0,4096"])


def test_parse_csv_sorts_out_of_order_rows():
    lines = [f"50,W,0,{BLOCK_SIZE}", f"10,W,{BLOCK_SIZE},{BLOCK_SIZE}"]
    tr = parse_csv(lines)
    assert list(tr.timestamps) == [10, 50]


def test_parse_msr_converts_ticks_and_rebases():
    # MSR: Timestamp(100ns),Host,Disk,Type,OffsetBytes,SizeBytes,Response
    lines = [
        f"128000001000,srv,0,Write,0,{BLOCK_SIZE},123",
        f"128000002000,srv,0,Read,{BLOCK_SIZE},{BLOCK_SIZE},99",
    ]
    tr = parse_msr(lines)
    assert list(tr.timestamps) == [0, 100]  # rebased, 100ns -> us
    assert tr.ops[0] == OP_WRITE


def test_parse_ali_field_order():
    # device_id,opcode,offset,length,timestamp
    lines = [f"3,W,0,{BLOCK_SIZE},77", f"3,R,{BLOCK_SIZE},{BLOCK_SIZE},177"]
    tr = parse_ali(lines)
    assert list(tr.timestamps) == [0, 100]
    assert tr.sizes.sum() == 2


def test_load_trace_csv_roundtrip(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(f"0,W,0,{BLOCK_SIZE}\n5,R,0,{BLOCK_SIZE}\n")
    tr = load_trace(p, fmt="csv")
    assert len(tr) == 2
    assert tr.volume == "t"


def test_load_trace_unknown_format(tmp_path):
    p = tmp_path / "t.bin"
    p.write_text("")
    with pytest.raises(TraceFormatError):
        load_trace(p, fmt="nope")


@pytest.mark.parametrize("parse,lines", [
    (parse_csv, ["0,W,99999999999999999999999999,4096"]),
    (parse_csv, ["0,W,0,99999999999999999999999999"]),
    (parse_ali, ["1,W,0,4096,0", f"1,W,0,4096,{10 ** 23}"]),
    (parse_msr, ["0,h,0,Write,0,4096,0", f"{10 ** 27},h,0,Write,0,4096,0"]),
], ids=["csv-offset", "csv-size", "ali-timestamp", "msr-timestamp"])
def test_out_of_range_values_raise_trace_format_error(parse, lines):
    with pytest.raises(TraceFormatError, match="64-bit"):
        parse(lines)
