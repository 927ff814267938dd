"""Inspect one iteration's task timeline and memory footprint.

Two operator-facing tools wrapped in one script:

1. export an iteration's full task timeline (GPU compute, compression
   kernels, host CPU, network transfers per node) as a Chrome trace --
   open it at chrome://tracing or https://ui.perfetto.dev;
2. compare the peak communication-buffer memory of the OSS integration
   against HiPress (§5: CompLL "only allocates buffers for the much
   smaller compressed gradients").

Run:  python examples/trace_and_memory.py [output.json]
"""

import sys

from repro.cluster import ec2_v100_cluster
from repro.experiments import run_system
from repro.hipress import TrainingJob
from repro.models import get_model
from repro.strategies import CaSyncPS
from repro.training.trace import trace_iteration

MB = 1024 * 1024


def export_trace(path: str):
    print("=== 1. Chrome-trace export (VGG19, HiPress-CaSync-PS, 4 nodes) ===")
    cluster = ec2_v100_cluster(4)
    job = TrainingJob(model="vgg19", algorithm="onebit",
                      strategy="casync-ps", cluster=cluster)
    trace = trace_iteration(get_model("vgg19"), cluster, CaSyncPS(),
                            algorithm=job.algorithm)
    with open(path, "w") as fh:
        fh.write(trace.to_chrome_trace())
    lanes = {}
    for event in trace.events:
        lanes[event.lane] = lanes.get(event.lane, 0) + 1
    print(f"  wrote {len(trace.events)} events "
          f"(iteration {trace.finish_time * 1000:.1f} ms) to {path}")
    for lane, count in sorted(lanes.items()):
        print(f"    {lane:16s} {count:5d} events")
    print(f"  open {path} in chrome://tracing or ui.perfetto.dev")


def memory_comparison():
    print("\n=== 2. Peak communication-buffer memory (VGG19, 4 nodes) ===")
    cluster = ec2_v100_cluster(4)
    oss = run_system("byteps-oss", "vgg19", cluster, algorithm="onebit")
    hipress = run_system("hipress-ps", "vgg19", cluster, algorithm="onebit")
    print(f"  BytePS(OSS-onebit): {oss.peak_comm_buffer_bytes / MB:7.0f} MB "
          "(staging copies + decode outputs)")
    print(f"  HiPress-CaSync-PS:  "
          f"{hipress.peak_comm_buffer_bytes / MB:7.0f} MB "
          "(compressed buffers only)")
    print(f"  -> {oss.peak_comm_buffer_bytes / hipress.peak_comm_buffer_bytes:.0f}x "
          "less GPU memory pressure for the same model.")


if __name__ == "__main__":
    output = sys.argv[1] if len(sys.argv) > 1 else "iteration_trace.json"
    export_trace(output)
    memory_comparison()
