#include "avd/datasets/dataset_io.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "avd/image/io.hpp"

namespace avd::data {

void save_dataset(const PatchDataset& dataset, const std::string& dir) {
  std::filesystem::create_directories(dir);
  std::ofstream index(dir + "/index.txt");
  if (!index) throw std::runtime_error("save_dataset: cannot open index");
  index << "avd-patches " << dataset.size() << ' '
        << to_string(dataset.condition) << '\n';

  char name[32];
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    std::snprintf(name, sizeof name, "patch_%05zu.pgm", i);
    img::write_pgm(dataset.patches[i].gray, dir + "/" + name);
    index << name << ' ' << dataset.patches[i].label << ' '
          << (dataset.patches[i].very_dark ? 1 : 0) << '\n';
  }
  if (!index) throw std::runtime_error("save_dataset: index write failed");
}

PatchDataset load_dataset(const std::string& dir) {
  std::ifstream index(dir + "/index.txt");
  if (!index) throw std::runtime_error("load_dataset: cannot open index");

  std::string magic, condition;
  std::size_t count = 0;
  if (!(index >> magic >> count >> condition) || magic != "avd-patches")
    throw std::runtime_error("load_dataset: bad index header");

  PatchDataset ds;
  if (condition == "day")
    ds.condition = LightingCondition::Day;
  else if (condition == "dusk")
    ds.condition = LightingCondition::Dusk;
  else if (condition == "dark")
    ds.condition = LightingCondition::Dark;
  else
    throw std::runtime_error("load_dataset: bad condition '" + condition + "'");

  // No reserve(count): the count is external bytes, so the vector grows as
  // rows arrive and a header claiming more rows than the index holds fails
  // as truncated without allocating the claim.
  for (std::size_t i = 0; i < count; ++i) {
    std::string name;
    int label = 0, very_dark = 0;
    if (!(index >> name >> label >> very_dark))
      throw std::runtime_error("load_dataset: truncated index");
    if (label != 1 && label != -1)
      throw std::runtime_error("load_dataset: bad label in index");
    LabeledPatch patch;
    patch.gray = img::read_pgm(dir + "/" + name);
    patch.label = label;
    patch.very_dark = very_dark != 0;
    if (!ds.patches.empty() &&
        patch.gray.size() != ds.patches.front().gray.size())
      throw std::runtime_error("load_dataset: inconsistent patch sizes");
    ds.patches.push_back(std::move(patch));
  }
  return ds;
}

}  // namespace avd::data
