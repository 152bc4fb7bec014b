"""Synthetic workload generators calibrated to the paper's trace statistics.

Real Alibaba/Tencent/MSRC traces are not redistributable, so the generators
here synthesise volumes whose marginal statistics match what the paper itself
reports in Figure 2 and §4.1 (see DESIGN.md, "Substitutions").
"""
