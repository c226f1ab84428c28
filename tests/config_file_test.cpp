// The shipped machine-model config file must parse, name every
// MachineConfig knob, and agree with the built-in defaults (it documents
// them; drift would mislead experiments).
#include <gtest/gtest.h>

#include <fstream>

#include "config_fields.hpp"
#include "gemini/machine_config.hpp"
#include "util/config.hpp"

namespace ugnirt {
namespace {

std::string find_hopper_cfg() {
  for (const char* candidate :
       {"configs/hopper.cfg", "../configs/hopper.cfg",
        "../../configs/hopper.cfg", "../../../configs/hopper.cfg"}) {
    std::ifstream f(candidate);
    if (f.good()) return candidate;
  }
  return {};
}

TEST(ConfigFile, HopperCfgParsesAndMatchesDefaults) {
  std::string path = find_hopper_cfg();
  if (path.empty()) GTEST_SKIP() << "configs/hopper.cfg not found from cwd";

  Config cfg;
  ASSERT_TRUE(cfg.parse_file(path)) << cfg.last_error();

  gemini::MachineConfig from_file;
  overlay(from_file, cfg);
  gemini::MachineConfig defaults;

  // The file names every field, and nothing else: each field's key is in
  // it, and it holds no more keys than there are fields.
  const auto fields = field_values(defaults);
  for (const auto& [key, value] : fields) {
    EXPECT_TRUE(cfg.get_string(key).has_value()) << key << " missing";
  }
  EXPECT_EQ(cfg.size(), fields.size());

  // Spot-check a representative field from each section.
  EXPECT_EQ(from_file.cores_per_node, defaults.cores_per_node);
  EXPECT_EQ(from_file.hop_ns, defaults.hop_ns);
  EXPECT_DOUBLE_EQ(from_file.link_bw, defaults.link_bw);
  EXPECT_EQ(from_file.smsg_max_bytes, defaults.smsg_max_bytes);
  EXPECT_DOUBLE_EQ(from_file.fma_bw, defaults.fma_bw);
  EXPECT_DOUBLE_EQ(from_file.bte_bw, defaults.bte_bw);
  EXPECT_EQ(from_file.mem_reg_per_page_ns, defaults.mem_reg_per_page_ns);
  EXPECT_EQ(from_file.mempool_init_bytes, defaults.mempool_init_bytes);
  EXPECT_EQ(from_file.rdma_threshold, defaults.rdma_threshold);
  EXPECT_EQ(from_file.mpi_eager_threshold, defaults.mpi_eager_threshold);
  EXPECT_EQ(from_file.mpi_rdma_threshold, defaults.mpi_rdma_threshold);
  EXPECT_EQ(from_file.mpi_iprobe_conn_free, defaults.mpi_iprobe_conn_free);
  EXPECT_EQ(from_file.pxshm_notify_ns, defaults.pxshm_notify_ns);

  // Full-field agreement.
  EXPECT_EQ(field_values(from_file), fields);
}

TEST(ConfigFile, ParseFileReportsMissingFile) {
  Config cfg;
  EXPECT_FALSE(cfg.parse_file("/nonexistent/path.cfg"));
  EXPECT_FALSE(cfg.last_error().empty());
}

}  // namespace
}  // namespace ugnirt
