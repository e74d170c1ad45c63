"""
Automated measurement campaign
==============================

The full acquisition loop in miniature: plan a grid traversal, talk to a
virtual positioner, trigger captures over TCP, and read the resulting
data set back.
"""

from mamimo import (
    Position3,
    RadioConfig,
    SampleGrid,
    VirtualPositioner,
    build_topology,
    default_campaign_plan,
    iter_samples,
    load_index,
    plan_full_campaign,
    simulate_campaign,
)

# Campaign arithmetic at the real scale: four tables, 5 mm resolution.
full = default_campaign_plan()
print(f"full campaign: {full.waypoints_per_positioner[0]} nodes per table, "
      f"{full.total_waypoints} total")
print(f"live duration estimate at 0.7 s per node: "
      f"{full.duration_estimate_s / 3600:.2f} h")

# The positioner speaks a tiny G-code-style protocol: home first, then
# absolute moves inside the work area.
table = VirtualPositioner(x_extent_mm=1250.0, y_extent_mm=1250.0)
for command in ("G28", "G0 X100 Y200", "G0 X2000 Y0", "G0 X nonsense"):
    reply = table.execute(command + "\n").strip()
    print(f"  {command!r:20s} -> {reply!r}")

# Now run a small end-to-end campaign: a 5 x 5 grid, the table served and
# driven over its protocol and captures triggered, both over real TCP, one
# binary sample file per node plus an index CSV.
radio = RadioConfig()
topology = build_topology("ura")
grid = SampleGrid(origin=Position3(-10.0, 1500.0, 1000.0),
                  x_extent_mm=20.0, y_extent_mm=20.0, resolution_mm=5.0)
plan = plan_full_campaign([grid])
index = simulate_campaign(plan, topology, radio, "campaign_out",
                          topology="ura", snr_db=25.0, seed=0)
print(f"campaign wrote {len(index)} samples to campaign_out/")

# Read the data set back the way an analysis stage would: stream the index,
# one sample in memory at a time. Labels are the commanded positions.
loaded = load_index("campaign_out/index.csv")
for record, sample in iter_samples(loaded):
    if record.sample_id in ("000000", "000024"):
        print(f"  {record.sample_id}: user {record.user_id} at "
              f"({record.label.x:6.1f}, {record.label.y:6.1f}) mm, "
              f"{sample.n_antennas} x {sample.n_subcarriers}")
print(f"index rows: {len(loaded)}, topology tag {loaded.topology!r}")
