#!/usr/bin/env python3
"""Sample a command's user-space call stacks and fold them per function.

    python3 tools/sample.py [--freq HZ] [--under NAME] [--by function|file]
                            [--top N] -- COMMAND [ARG...]

The tool starts COMMAND as its own child process and samples that child
only: one software CPU-clock `perf_event_open` event per CPU the child may
run on, user space only (`exclude_kernel`), inherited by the child's
threads and enabled when the child execs. (An inherited event opened with
`cpu = -1` cannot be mmapped, so the events are per CPU.) It reads each
sample's frame-pointer callchain from the events' ring buffers, resolves
every address with `addr2line` into its chain of inlined functions, and
prints self and inclusive time per function. `--by file` keys them by
source file instead, and `--by layer` by the repository module a sample
is in: its innermost frame whose source is in the repository
(`crates/core/src/eval.rs` is `core/eval`), so inlined standard-library
code counts toward the module that called it. `--under NAME` keeps only
the samples whose stack holds a function whose name contains NAME.

Only the Python standard library and `addr2line` are needed. The command
must be built with frame pointers and line tables, for example:

    RUSTFLAGS="-C force-frame-pointers=yes" \\
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \\
    CARGO_PROFILE_RELEASE_STRIP=none CARGO_TARGET_DIR=.sample_build \\
    cargo build --release --offline --manifest-path perfbench/Cargo.toml

The prebuilt standard library and libc keep no frame pointers, so a
sample taken inside them may lose a caller or two. A callchain is also
cut at the kernel's `perf_event_max_stack`; the report counts the
chains that reach it.
"""

import argparse
import bisect
import collections
import ctypes
import mmap
import os
import select
import struct
import subprocess
import sys

SYSCALL_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_CPU_CLOCK = 0
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
PERF_SAMPLE_CALLCHAIN = 1 << 5
# perf_event_attr flag bits.
ATTR_DISABLED = 1 << 0
ATTR_INHERIT = 1 << 1
ATTR_EXCLUDE_KERNEL = 1 << 5
ATTR_EXCLUDE_HV = 1 << 6
ATTR_MMAP = 1 << 8
ATTR_ENABLE_ON_EXEC = 1 << 12
ATTR_MMAP2 = 1 << 23
ATTR_SIZE = 112  # PERF_ATTR_SIZE_VER5
PERF_FLAG_FD_CLOEXEC = 8
PERF_RECORD_LOST = 2
PERF_RECORD_SAMPLE = 9
PERF_RECORD_MMAP2 = 10
# Callchain entries at or above this are context markers, not addresses.
PERF_CONTEXT_MAX = (1 << 64) - 4095
PROT_EXEC = 4
DATA_PAGES = 128  # per CPU; a power of two


def perf_event_open(pid, cpu, period_ns):
    attr = bytearray(ATTR_SIZE)
    flags = (ATTR_DISABLED | ATTR_INHERIT | ATTR_EXCLUDE_KERNEL | ATTR_EXCLUDE_HV
             | ATTR_MMAP | ATTR_MMAP2 | ATTR_ENABLE_ON_EXEC)
    sample_type = PERF_SAMPLE_IP | PERF_SAMPLE_TID | PERF_SAMPLE_CALLCHAIN
    struct.pack_into("IIQQQQQ", attr, 0, PERF_TYPE_SOFTWARE, ATTR_SIZE,
                     PERF_COUNT_SW_CPU_CLOCK, period_ns, sample_type, 0, flags)
    libc = ctypes.CDLL(None, use_errno=True)
    nr = SYSCALL_PERF_EVENT_OPEN[os.uname().machine]
    buf = ctypes.create_string_buffer(bytes(attr), ATTR_SIZE)
    fd = libc.syscall(nr, buf, pid, cpu, -1, PERF_FLAG_FD_CLOEXEC)
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"perf_event_open(cpu {cpu}): {os.strerror(err)}")
    return fd


class Ring:
    """One event's mmapped ring buffer."""

    def __init__(self, fd):
        self.fd = fd
        self.mm = mmap.mmap(fd, (1 + DATA_PAGES) * mmap.PAGESIZE)
        offset, size = struct.unpack_from("QQ", self.mm, 1040)
        self.offset = offset or mmap.PAGESIZE
        self.size = size or DATA_PAGES * mmap.PAGESIZE
        self.tail = 0

    def read(self, pos, n):
        at = pos % self.size
        start = self.offset + at
        if at + n <= self.size:
            return self.mm[start:start + n]
        first = self.size - at
        return self.mm[start:start + first] + self.mm[self.offset:self.offset + n - first]

    def records(self):
        """Every record written since the last call, as (type, body)."""
        head = struct.unpack_from("Q", self.mm, 1024)[0]
        out = []
        while self.tail < head:
            rtype, _misc, size = struct.unpack("IHH", self.read(self.tail, 8))
            if size < 8:
                break
            out.append((rtype, self.read(self.tail + 8, size - 8)))
            self.tail += size
        struct.pack_into("Q", self.mm, 1032, self.tail)
        return out


class Maps:
    """Executable file mappings of the sampled process."""

    def __init__(self):
        self.spans = {}  # start -> (end, pgoff, path)

    def add(self, start, end, pgoff, path):
        if path.startswith("/") and os.path.isfile(path):
            self.spans[start] = (end, pgoff, path)

    def add_proc(self, pid):
        try:
            with open(f"/proc/{pid}/maps") as f:
                lines = f.read().splitlines()
        except OSError:
            return
        for line in lines:
            parts = line.split(None, 5)
            if len(parts) == 6 and "x" in parts[1]:
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                self.add(lo, hi, int(parts[2], 16), parts[5])

    def add_mmap2(self, body):
        _pid, _tid, addr, length, pgoff = struct.unpack_from("IIQQQ", body, 0)
        prot = struct.unpack_from("I", body, 56)[0]
        name = body[64:].split(b"\0", 1)[0].decode(errors="replace")
        if prot & PROT_EXEC:
            self.add(addr, addr + length, pgoff, name)

    def locate(self, addr):
        """(path, file offset) of a mapped address, or None."""
        starts = sorted(self.spans)
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0:
            return None
        end, pgoff, path = self.spans[starts[i]]
        if addr >= end:
            return None
        return path, addr - starts[i] + pgoff


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each PT_LOAD segment of a 64-bit ELF."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        endian = "<" if head[5] == 1 else ">"
        phoff = struct.unpack_from(endian + "Q", head, 32)[0]
        phentsize, phnum = struct.unpack_from(endian + "HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def symbolize(addrs_by_file):
    """{(path, vaddr): [(function, file), ...]} innermost inlined frame first."""
    out = {}
    for path, vaddrs in addrs_by_file.items():
        vaddrs = sorted(vaddrs)
        cmd = ["addr2line", "-a", "-f", "-i", "-C", "-e", path]
        text = subprocess.run(cmd, input="\n".join(f"{v:#x}" for v in vaddrs),
                              capture_output=True, text=True, check=True).stdout
        # Each address's block is its `-a` line, then a function line and
        # a location line per inlined frame, innermost first.
        cur = None
        lines = text.splitlines()
        k = i = 0
        while i < len(lines):
            line = lines[i]
            if k < len(vaddrs) and line.startswith("0x") and int(line, 16) == vaddrs[k]:
                cur = (path, vaddrs[k])
                out[cur] = []
                k += 1
                i += 1
            elif cur is not None and i + 1 < len(lines):
                func, src = line, lines[i + 1].rsplit(":", 1)[0]
                if func == "??":
                    func = f"?? ({os.path.basename(path)})"
                out[cur].append((func, src))
                i += 2
            else:
                i += 1
    return out


def shorten(src):
    """A source path relative to the toolchain or to the repository."""
    for marker in ("/library/", "/crates/", "/perfbench/", "/src/"):
        if marker in src:
            return marker.strip("/") + "/" + src.split(marker, 1)[1]
    return src


def layer_of(src):
    """`crate/module` of a source file in the repository, else None."""
    toolchain = ("/rustc/", "/rust/deps/", "/library/", "/.cargo/")
    if not src.endswith(".rs") or any(t in src for t in toolchain):
        return None
    for marker, crate in (("/crates/", None), ("/perfbench/src/", "perfbench"), ("/src/", "shill")):
        if marker in src:
            rest = src.split(marker, 1)[1][:-3]
            if crate is None:
                crate, _, rest = rest.partition("/src/")
            return f"{crate}/{rest}"
    return None


def run_sampled(cmd, period_ns):
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(w)
        os.read(r, 1)
        try:
            os.execvp(cmd[0], cmd)
        except OSError as e:
            print(f"sample: cannot run {cmd[0]}: {e}", file=sys.stderr)
        os._exit(127)
    os.close(r)
    rings = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            rings.append(Ring(perf_event_open(pid, cpu, period_ns)))
    except OSError:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        raise
    maps = Maps()
    samples = []
    lost = 0
    os.write(w, b"x")
    os.close(w)
    status = None
    while status is None:
        select.select([ring.fd for ring in rings], [], [], 0.05)
        done, st = os.waitpid(pid, os.WNOHANG)
        if done:
            status = st
        else:
            maps.add_proc(pid)
        for ring in rings:
            for rtype, body in ring.records():
                if rtype == PERF_RECORD_SAMPLE:
                    nr = struct.unpack_from("Q", body, 16)[0]
                    samples.append(struct.unpack_from(f"{nr}Q", body, 24))
                elif rtype == PERF_RECORD_MMAP2:
                    maps.add_mmap2(body)
                elif rtype == PERF_RECORD_LOST:
                    lost += struct.unpack_from("Q", body, 8)[0]
    for ring in rings:
        ring.mm.close()
        os.close(ring.fd)
    return samples, maps, lost, os.waitstatus_to_exitcode(status)


def fold(samples, maps, under, by):
    """Self and inclusive sample counts per key, over the kept samples."""
    chains = [[a for a in chain if a < PERF_CONTEXT_MAX] for chain in samples]
    located = {}
    by_file = collections.defaultdict(set)
    segments = {}
    for chain in chains:
        for depth, addr in enumerate(chain):
            # A return address points past its call: look up the call.
            pc = addr if depth == 0 else addr - 1
            if pc in located:
                continue
            hit = maps.locate(pc)
            if hit is None:
                located[pc] = None
                continue
            path, off = hit
            if path not in segments:
                segments[path] = load_segments(path)
            vaddr = next((off - o + v for o, v, n in segments[path] if o <= off < o + n), off)
            located[pc] = (path, vaddr)
            by_file[path].add(vaddr)
    frames = symbolize(by_file)
    self_n = collections.Counter()
    incl_n = collections.Counter()
    kept = 0
    for chain in chains:
        stack = []
        for depth, addr in enumerate(chain):
            pc = addr if depth == 0 else addr - 1
            where = located.get(pc)
            inlined = frames.get(where, []) if where else []
            stack.extend(inlined or [("?? (unmapped)", "")])
        if under and not any(under in func for func, _ in stack):
            continue
        kept += 1
        if by == "function":
            keys = [func for func, _ in stack]
        elif by == "file":
            keys = [shorten(src) if src != "??" else func for func, src in stack]
        else:
            keys = [layer for layer in map(layer_of, (src for _, src in stack)) if layer]
            keys = keys or ["(outside the repository)"]
        if keys:
            self_n[keys[0]] += 1
        for key in set(keys):
            incl_n[key] += 1
    return kept, self_n, incl_n


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--freq", type=int, default=4000, help="samples per CPU-second (default 4000)")
    ap.add_argument("--under", help="keep samples whose stack has a function containing this")
    ap.add_argument("--by", choices=("function", "file", "layer"), default="function")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command to sample")
    samples, maps, lost, code = run_sampled(cmd, max(1, 1_000_000_000 // args.freq))
    max_stack = 127
    try:
        with open("/proc/sys/kernel/perf_event_max_stack") as f:
            max_stack = int(f.read())
    except OSError:
        pass
    cut = sum(1 for chain in samples if len(chain) >= max_stack)
    kept, self_n, incl_n = fold(samples, maps, args.under, args.by)
    print(f"# {len(samples)} samples ({lost} lost, {cut} cut at {max_stack} frames); "
          f"command exited {code}")
    if args.under:
        print(f"# {kept} samples under {args.under!r}")
    if not kept:
        return
    print(f"{'self%':>7} {'incl%':>7}  {args.by}")
    for key, n in self_n.most_common(args.top):
        print(f"{100 * n / kept:7.2f} {100 * incl_n[key] / kept:7.2f}  {key}")
    print(f"\n{'incl%':>7}  {args.by} (inclusive)")
    for key, n in incl_n.most_common(args.top):
        print(f"{100 * n / kept:7.2f}  {key}")


if __name__ == "__main__":
    main()
