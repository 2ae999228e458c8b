#!/usr/bin/env python
"""Shotgun: synchronize a software update to a node fleet (paper 4.8).

A researcher has deployed an experiment on 30 wide-area nodes and
rebuilds part of the software image.  This example:

1. generates the old/new images and computes the rsync batch delta once
   at the server (``shotgun_sync``);
2. disseminates the delta archive through a Bullet' overlay and applies
   it at every node (``shotgund``), verifying byte-for-byte integrity;
3. compares against staggered parallel rsync (2/4/8/16 processes).

Run:  python examples/shotgun_sync.py
"""

from repro.harness.workloads import software_update_workload
from repro.shotgun.shotgun import ParallelRsyncModel, ShotgunSession, UpdateBundle


def main():
    num_nodes = 30
    image_size = 6 * 1024 * 1024  # old software image

    print("building update (rsync batch mode at the server)...")
    old_image, new_image = software_update_workload(
        image_size, delta_fraction=0.4, seed=3
    )
    bundle = UpdateBundle.build(old_image, new_image, old_version=7, new_version=8)
    print(f"  image {image_size} B -> delta archive {bundle.wire_size} B")
    print(f"  copies: {bundle.delta.copy_count()}  literal bytes: "
          f"{bundle.delta.literal_bytes()}")

    # Every client applies the delta locally; verify correctness once.
    applied, version = bundle.apply(old_image, current_version=7)
    assert applied == new_image and version == 8
    print("  client-side apply verified (byte-identical)")

    print("\ndisseminating through Bullet' ...")
    session = ShotgunSession(bundle)
    outcome = session.run(num_nodes, seed=3, max_time=6000.0)
    downloads = sorted(outcome["download"].values())
    with_update = sorted(outcome["download_and_update"].values())
    print(f"  slowest download           : {downloads[-1]:8.1f} s")
    print(f"  slowest download + update  : {with_update[-1]:8.1f} s")

    print("\nstaggered parallel rsync baseline (per-client image scans):")
    model = ParallelRsyncModel()
    for k in (2, 4, 8, 16):
        times = model.completion_times(
            num_nodes, k, bundle.wire_size, image_bytes=image_size
        )
        print(f"  {k:2d} processes: slowest client {max(times):8.1f} s")

    best = min(
        max(
            model.completion_times(
                num_nodes, k, bundle.wire_size, image_bytes=image_size
            )
        )
        for k in (2, 4, 8, 16)
    )
    print(
        f"\nShotgun speedup over best rsync configuration: "
        f"{best / with_update[-1]:.1f}x"
    )


if __name__ == "__main__":
    main()
